import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

settings.register_profile("ci", deadline=None, max_examples=50)
settings.load_profile("ci")

SRC = Path(__file__).resolve().parents[1] / "src"


def annihilation(cutoff):
    """Single-mode annihilation operator on levels 0..cutoff-1, as a dense
    matrix: the reference the Fock-space tests build their operators from."""
    a = np.zeros((cutoff, cutoff), dtype=complex)
    ks = np.arange(1, cutoff)
    a[ks - 1, ks] = np.sqrt(ks)
    return a


@pytest.fixture(scope="session")
def rng():
    return np.random.default_rng(20240817)


def run_python(*args, timeout=120):
    """Run ``python *args`` in a fresh interpreter that imports cubacode from
    this checkout's ``src`` (put first on PYTHONPATH); returns the
    CompletedProcess with stdout and stderr captured as text."""
    path = [str(SRC)] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True,
                          timeout=timeout)


@pytest.fixture(scope="session")
def fresh_python():
    """:func:`run_python`, for tests that need a process of their own."""
    return run_python
