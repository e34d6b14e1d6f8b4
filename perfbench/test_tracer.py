"""Self-test of the benchmark's tracer and workload split.

Run from the repository root:  python3 -m pytest perfbench -q
"""

import pytest

import run
import tracer as tr
import workloads as wl

cubacode = run.import_cubacode()


def test_binding_scan_rebinds_every_alias_and_restores():
    import cubacode.bench
    import cubacode.fock
    import cubacode.moments

    originals = (cubacode.fock.fidelity_details, cubacode.moments.weighted_moment)
    tracer = tr.Tracer()
    tracer.install()
    try:
        assert tracer.missing == []
        bound = tracer.bindings()
        # bench, fock and the package root bind fidelity_details;
        # moments, klcheck, cli and the root bind weighted_moment.
        assert bound["fock.fidelity_details"] >= 3
        assert bound["moments.weighted_moment"] >= 4
        for module in (cubacode, cubacode.bench, cubacode.fock):
            assert module.fidelity_details is not originals[0]
    finally:
        tracer.uninstall()
    assert cubacode.bench.fidelity_details is originals[0]
    assert cubacode.fidelity_details is originals[0]
    assert cubacode.moments.weighted_moment is originals[1]


def test_self_time_merges_parallel_children():
    spans = [
        tr.Span(1, "parent", 0.0, 10.0, None, 1, 1),
        tr.Span(2, "child", 1.0, 5.0, 1, 2, 1),  # two worker threads
        tr.Span(3, "child", 3.0, 7.0, 1, 3, 1),
        tr.Span(4, "grandchild", 2.0, 3.0, 2, 2, 1),
    ]
    selfs = tr.self_times(spans)
    assert selfs[1] == pytest.approx(4.0)
    assert selfs[2] == pytest.approx(3.0)
    assert selfs[3] == pytest.approx(4.0)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_traced_pass_matches_untraced_and_loads_listed_spans(workload):
    """Traced outputs equal untraced outputs, and every traced function
    makes calls on exactly the workloads its entry lists."""
    ops = wl.ops(workload, wl.pass_rng(0, 0))
    plain = run.run_pass(cubacode.cli, ops)
    tracer = tr.Tracer()
    tracer.install()
    try:
        traced = run.run_pass(cubacode.cli, ops, tracer)
    finally:
        tracer.uninstall()
    assert [r[:2] for r in traced.results] == [r[:2] for r in plain.results]
    assert all(r[0] == 0 for r in plain.results)
    metrics = run.layer_metrics(tracer.take(), run.bench_rows(ops, plain.results))
    assert tracer.missing == []
    assert run.split_problems(workload, [metrics]) == []
