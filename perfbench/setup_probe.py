"""Set-up probe: in a fresh process, time importing cubacode and building
and normalizing one workload's codes, and print the seconds.

Usage: python3 perfbench/setup_probe.py WORKLOAD  (with src/ on PYTHONPATH)
"""

import sys
import time

from workloads import SETUP_CODES


def main(workload: str) -> None:
    t0 = time.perf_counter()
    from cubacode import build_catalog_code, normalize_energy

    for name, params, target in SETUP_CODES[workload]:
        code = build_catalog_code(name, params)
        if target is not None:
            normalize_energy(code, target)
    print(time.perf_counter() - t0)


if __name__ == "__main__":
    main(sys.argv[1])
