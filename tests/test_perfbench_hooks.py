"""The benchmark's span hooks (perfbench/spans.py) find their targets.

A hook whose target was renamed or removed is skipped by the benchmark and
its per-layer metrics are reported absent; here that fails the suite.
"""

import importlib.util
from pathlib import Path

import pytest

import rcsopt as r

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("kind,n,m", [("rayleigh", 5, 20), ("median", 5, 20),
                                      ("karcher", 3, 10)])
def test_hooks_install_on_the_package_and_leave_the_solve_unchanged(kind, n,
                                                                    m):
    spans = load_spans()
    oracle = r.generate_instance(kind, n, m, seed=7)
    x0 = r.initial_point(kind, n, 7)
    cfg = r.SolverConfig(max_iters=25)
    plain = r.conjugate_subgradient_solve(oracle, x0, cfg, seed=7)

    original = r.solver.line_search
    tracer = spans.Tracer()
    with spans.installed(tracer, r):
        assert r.solver.line_search is not original
        solve = spans.solve_hook(tracer, r.conjugate_subgradient_solve)
        traced = solve(spans.TimedOracle(oracle, tracer), x0, cfg, seed=7)
    assert tracer.absent == set()
    assert (traced.iters, traced.nf, traced.f) \
        == (plain.iters, plain.nf, plain.f)
    # The hook reads the line-search result's counters by name, with a
    # default: a renamed ``evals`` or ``approximate`` would read 0 there.
    assert tracer.counts["linesearch.evals"] == traced.nf - 1 >= 1
    assert tracer.counts["linesearch.width_stops"] \
        == sum(row.width_stop for row in plain.trajectory)
    totals = spans.span_totals(tracer)
    assert totals["solver.solve"][0] == 1
    assert totals["linesearch.line_search"][0] == traced.iters >= 1
    # The loop calls the hooked name, once per iteration (a Karcher solve
    # can stop before max_iters).
    assert totals["solver.direction_update"][0] == traced.iters >= 1
    assert r.solver.line_search is original  # unhooked after the block
