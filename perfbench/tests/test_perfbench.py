"""Self-tests of the benchmark: its declared metrics, span arithmetic, and a
tiny run of every workload.  Run with ``python3 -m pytest perfbench/tests``.
"""

import json
import re
import sys
import types
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import spans  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_declared_names_and_units_match_the_code():
    e2e, layer = SPEC["end_to_end"], SPEC["per_layer"]
    assert 1 <= len(e2e) <= 16 and 1 <= len(layer) <= 128
    names = [m["name"] for m in e2e + layer + SPEC["workloads"]]
    assert len(names) == len(set(names))
    for m in e2e + layer:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m["unit"]
        assert m["better"] in ("lower", "higher")
    for m in e2e:
        assert 0.0 < m["bound"] <= 0.25
    assert {m["name"]: m["unit"] for m in e2e} == run.E2E_METRICS
    assert {m["name"]: m["unit"] for m in layer} == run.LAYER_METRICS
    setup = [m for m in e2e if m["name"] == "setup_s"]
    assert setup and setup[0]["unit"] == "s" and setup[0]["better"] == "lower"
    assert setup[0]["bound"] == max(m["bound"] for m in e2e)


def test_every_workload_carries_a_reason():
    assert {w["name"] for w in SPEC["workloads"]} == set(run.WORKLOADS)
    for w in SPEC["workloads"]:
        assert NAME.fullmatch(w["name"])
        assert w["why"].strip() and "\n" not in w["why"]
        assert len(w["why"]) <= 200


def test_self_time_on_synthetic_tree():
    # root(0..10) -> a(1..4) -> b(2..3); root -> c(5..9)
    parent = np.array([-1, 0, 1, 0])
    dur = np.array([10.0, 3.0, 1.0, 4.0])
    assert spans.self_times(parent, dur).tolist() == [3.0, 2.0, 1.0, 4.0]


def test_tracer_records_nesting_and_solve_ids(monkeypatch):
    ticks = iter(range(100))
    monkeypatch.setattr(spans, "perf_counter", lambda: float(next(ticks)))
    tr = spans.Tracer()
    leaf = tr.wrap("manifolds.inner", lambda: None)
    mid = tr.wrap("linesearch.line_search", lambda: (leaf(), leaf()))
    solve = tr.wrap("solver.solve", lambda: mid(), root=True)
    outside = tr.wrap("manifolds.inner", lambda: None)
    solve()
    outside()
    names, nid, parent, sid, dur = tr.arrays()
    assert [names[i] for i in nid] == ["solver.solve", "linesearch.line_search",
                                       "manifolds.inner", "manifolds.inner",
                                       "manifolds.inner"]
    assert parent.tolist() == [-1, 0, 1, 1, -1]
    assert sid.tolist() == [0, 0, 0, 0, -1]
    # Clock reads: solve 0..7, search 1..6, leaves 2..3 and 4..5, outside 8..9.
    assert dur.tolist() == [7.0, 5.0, 1.0, 1.0, 1.0]
    tot = spans.span_totals(tr)
    assert tot["solver.solve"][:2] == (1, 2.0)
    assert tot["linesearch.line_search"][:2] == (1, 3.0)
    assert tot["manifolds.inner"][:2] == (2, 2.0)   # the outside call is not
    assert spans.span_totals(tr, solves_only=False)["manifolds.inner"][0] == 3


def test_missing_hook_targets_are_reported_absent():
    empty = types.SimpleNamespace()
    pkg = types.SimpleNamespace(manifolds=empty, linesearch=empty,
                                solver=empty, bench=empty)
    tr = spans.Tracer()
    with spans.installed(tr, pkg):
        pass
    metrics = spans.layer_metrics(tr)
    assert "manifolds.same_point" in tr.absent
    assert not any(k.startswith(("manifolds.same_point", "linesearch.calls",
                                 "solver.direction_update")) for k in metrics)


TINY = {
    "sphere-cs": {"groups": (("rayleigh", 3, 4, 1), ("median", 3, 4, 1)),
                  "max_iters": 15},
    "spd-cs": {"groups": (("karcher", 2, 3, 1), ("karcher", 3, 3, 1)),
               "max_iters": None},
    "bench-trace": {"suite": ("rayleigh", 3, 4, 1), "max_iters": 15},
}


@pytest.mark.parametrize("workload", sorted(TINY))
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_prints_every_metric(workload, trace, monkeypatch, tmp_path,
                                      capsys):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    assert run.main(["--workload", workload, "--seed", "3", "--seconds", "0",
                     "--trace", str(trace)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    last = json.loads(lines[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0 and last["attempted"] >= 1
    declared = run.LAYER_METRICS if trace else run.E2E_METRICS
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared
    report = "\n".join(lines[:-1])
    printed = {**run.E2E_METRICS, **run.E2E_REPORT_ONLY}
    if trace:
        printed.update(run.LAYER_METRICS)
    for name, unit in printed.items():
        assert re.search(rf"^  {re.escape(name)} = \S+ {re.escape(unit)}$",
                         report, re.M), name


def test_a_failing_solve_is_counted_and_the_run_goes_on(monkeypatch, tmp_path,
                                                        capsys):
    monkeypatch.setattr(run, "WORKLOADS", TINY)
    monkeypatch.setattr(run, "OUT", tmp_path)
    rcsopt = run.load_package()
    real = rcsopt.conjugate_subgradient_solve
    calls = []

    def flaky(*args, **kwargs):
        calls.append(1)
        if len(calls) == 1:
            raise FloatingPointError("injected")
        return real(*args, **kwargs)

    monkeypatch.setattr(rcsopt, "conjugate_subgradient_solve", flaky)
    assert run.main(["--workload", "sphere-cs", "--seed", "3", "--seconds",
                     "0", "--trace", "0"]) == 0
    out = capsys.readouterr().out
    last = json.loads(out.strip().splitlines()[-1])
    assert not last["correct"]
    assert last["failed"] == 1 and last["attempted"] == 2
    assert "FloatingPointError: injected" in out
