import importlib.util
import json
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"


def _tool():
    spec = importlib.util.spec_from_file_location("ab_pairs", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


ab = _tool()


def test_gain_needs_nine_wins_in_ten_and_a_gap_beyond_the_parent_iqr():
    parent = [1.00, 1.02, 0.98, 1.01, 0.99, 1.03, 0.97, 1.00, 1.02, 0.98]
    change = [p - 0.1 for p in parent]
    v = ab.gain_verdict(parent, change)
    assert (v["pairs"], v["wins"], v["holds"]) == (10, 10, True)
    assert v["gap"] == pytest.approx(0.1)
    assert v["parent_iqr"] == pytest.approx(0.035)  # 1.0175 - 0.9825
    # Eight wins in ten: no gain, however large the gap.
    lost = change[:8] + [parent[8] + 0.1, parent[9] + 0.1]
    assert ab.gain_verdict(parent, lost)["holds"] is False
    # Nine wins in ten is enough.
    assert ab.gain_verdict(parent, change[:9] + [parent[9]])["holds"] is True
    # Every pair won, but the medians differ by less than the parent's IQR.
    small = [p - 0.001 for p in parent]
    v = ab.gain_verdict(parent, small)
    assert v["wins"] == 10 and v["holds"] is False


def test_ties_count_for_neither_side_and_direction_is_respected():
    parent = [2.0] * 10
    assert ab.gain_verdict(parent, list(parent))["wins"] == 0
    higher = [3.0] * 10
    assert ab.gain_verdict(parent, higher, better="higher")["holds"] is True
    assert ab.gain_verdict(parent, higher, better="lower")["wins"] == 0


def test_fewer_than_ten_pairs_never_hold():
    assert ab.gain_verdict([1.0] * 9, [0.5] * 9)["holds"] is False
    with pytest.raises(ValueError):
        ab.gain_verdict([1.0, 1.0], [0.5])


def test_bound_and_seed_parsing():
    assert ab.within_bound(1.0, 1.2, 0.25)
    assert not ab.within_bound(1.0, 1.3, 0.25)
    assert ab.within_bound(1.0, 0.8, 0.1, better="higher") is False
    assert ab.parse_seeds("201-204") == [201, 202, 203, 204]
    assert ab.parse_seeds("1,4,7") == [1, 4, 7]


def test_runs_last_as_long_as_the_benchmark_sets():
    spec = json.loads((TOOL.parent.parent / "BENCHMARK.json").read_text())
    assert ab.RUN_SECONDS == spec["run_seconds"]


def _result_file(tree, workload, seed, groups):
    out = tree / ".perfbench_out"
    out.mkdir(parents=True, exist_ok=True)
    (out / f"result-{workload}-s{seed}-t0.json").write_text(json.dumps(
        {"workload": workload, "seed": seed, "groups": groups}))


def test_group_ms_per_iter_is_read_from_each_tree(tmp_path):
    figures = {"conjugate_subgradient": {"ms_per_iter": 0.36,
                                         "evals_per_iter": 4.6, "iters": 9},
               "subgradient": {"ms_per_iter": 0.07, "iters": 12}}
    _result_file(tmp_path, "bench-trace", 7, figures)
    assert ab.read_groups(tmp_path, "bench-trace", 7) \
        == {"conjugate_subgradient": 0.36, "subgradient": 0.07}
    _result_file(tmp_path, "spd-cs", 7, {})
    assert ab.read_groups(tmp_path, "spd-cs", 7) == {}
    with pytest.raises(FileNotFoundError):
        ab.read_groups(tmp_path, "sphere-cs", 7)


def test_group_verdicts_pair_each_group():
    def rec(p_cs, c_cs, c_sg=0.05):
        return {"parent": {"groups": {"cs": p_cs, "sg": 0.07}},
                "change": {"groups": {"cs": c_cs, "sg": c_sg}}}

    recs = [rec(0.40 + 0.01 * k, 0.36 + 0.01 * k) for k in range(10)]
    table = ab.group_verdicts({"bench-trace": recs})["bench-trace"]
    assert sorted(table) == ["cs", "sg"]
    assert table["cs"]["parent"]["median"] == pytest.approx(0.445)
    assert table["cs"]["change"]["median"] == pytest.approx(0.405)
    assert table["cs"]["wins"] == 10 and table["sg"]["wins"] == 10
    # A group one side lacks in a pair is compared over the other pairs.
    del recs[0]["change"]["groups"]["sg"]
    table = ab.group_verdicts({"bench-trace": recs})["bench-trace"]
    assert table["sg"]["pairs"] == 9 and table["cs"]["pairs"] == 10
