import json
import math
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

import rcsopt as r
from rcsopt import bench
from rcsopt.cli import main


def write_suite(path, **kw):
    spec = {"kind": "rayleigh", "sizes": [[3, 4]], "runs": 2, "base_seed": 0,
            "solvers": ["conjugate_subgradient", "subgradient"],
            "solver_configs": {"conjugate_subgradient": {"max_iters": 40},
                               "subgradient": {"max_iters": 60}}}
    spec.update(kw)
    path.write_text(json.dumps(spec))
    return path


def trajectory_lines(n=3, m=5, seed=2, max_iters=30, record=True):
    """JSON lines of a rayleigh solve, with tangent data when recorded."""
    oracle = r.generate_instance("rayleigh", n, m, seed=seed)
    x0 = r.initial_point("rayleigh", n, seed)
    res = r.conjugate_subgradient_solve(
        oracle, x0, r.SolverConfig(max_iters=max_iters), seed=seed,
        record=record)
    return list(r.trajectory_lines(res.trajectory, include_tangents=record))


def write_lines(path, lines):
    path.write_text("".join(line + "\n" for line in lines))
    return path


def test_run_writes_outputs(tmp_path, capsys):
    suite = write_suite(tmp_path / "suite.json")
    out = tmp_path / "out"
    assert main(["run", "--suite", str(suite), "--out", str(out)]) == 0
    assert (out / "records.csv").exists()
    assert (out / "profiles.csv").exists()
    assert (out / "profile_conjugate_subgradient.csv").exists()
    assert (out / "profile_subgradient.csv").exists()
    summary = json.loads((out / "summary.json").read_text())
    assert summary["spec"]["kind"] == "rayleigh"
    assert len(summary["summary"]) == 2
    records = r.records_from_csv((out / "records.csv").read_text())
    assert len(records) == 4


def _no_constant(name):
    raise ValueError(f"summary.json holds the non-JSON constant {name}")


@pytest.mark.parametrize("solvers", [["conjugate_subgradient", "subgradient"],
                                     ["subgradient"]])
def test_summary_json_stays_json_with_error_rows(tmp_path, monkeypatch,
                                                 capsys, solvers):
    # Error rows have final_f = inf: their cell's mean, and f_opt of a
    # problem whose every cell raised, are written as null, since JSON has
    # no Infinity.  records.csv keeps the inf.
    def broken(*args, **kwargs):
        raise r.DegenerateTransportError("antipodal endpoints")

    monkeypatch.setitem(bench.SOLVERS, "subgradient", broken)
    suite = write_suite(tmp_path / "suite.json", solvers=solvers)
    out = tmp_path / "out"
    assert main(["run", "--suite", str(suite), "--out", str(out)]) == 0
    summary = json.loads((out / "summary.json").read_text(),
                         parse_constant=_no_constant)
    means = {row["solver"]: row["mean_final_f"] for row in summary["summary"]}
    assert means.pop("subgradient") is None
    assert all(isinstance(f, float) for f in means.values())
    f_opts = list(summary["f_opt"].values())
    assert len(f_opts) == 2
    if len(solvers) == 1:
        assert f_opts == [None, None]
    else:
        assert all(isinstance(f, float) for f in f_opts)
    records = r.records_from_csv((out / "records.csv").read_text())
    assert {x.final_f for x in records if x.solver == "subgradient"} \
        == {math.inf}


def test_run_with_trace_then_check(tmp_path, capsys):
    suite = write_suite(tmp_path / "suite.json", runs=1,
                        solvers=["conjugate_subgradient"])
    out = tmp_path / "out"
    assert main(["run", "--suite", str(suite), "--out", str(out),
                 "--trace"]) == 0
    trajs = sorted(out.glob("traj_*.jsonl"))
    assert trajs
    irps = sorted(out.glob("irp_*.jsonl"))
    assert irps
    first = json.loads(irps[0].read_text().splitlines()[0])
    assert {"i", "tau_lo", "tau", "tau_hi", "branch"} <= set(first)
    assert main(["check", "--trajectory", str(trajs[0])]) == 0
    printed = capsys.readouterr().out
    assert "descent: PASS" in printed
    assert "norm recursion: PASS" in printed
    assert "direction recursion: PASS" in printed


def test_check_without_tangents_skips_replay(tmp_path, capsys):
    path = write_lines(tmp_path / "scalars.jsonl",
                       trajectory_lines(3, 4, 1, 120, record=False))
    assert main(["check", "--trajectory", str(path)]) == 0
    assert "skipped" in capsys.readouterr().out


def test_check_flags_broken_trajectory(tmp_path, capsys):
    lines = trajectory_lines(3, 4, 2, 30, record=False)
    rec = json.loads(lines[2])
    rec["f"] = rec["f"] + 10.0  # inject an objective increase
    lines[2] = json.dumps(rec)
    path = write_lines(tmp_path / "broken.jsonl", lines)
    assert main(["check", "--trajectory", str(path)]) == 1
    assert "descent: FAIL" in capsys.readouterr().out


def test_profile_subcommand(tmp_path, capsys):
    suite = write_suite(tmp_path / "suite.json")
    out = tmp_path / "out"
    main(["run", "--suite", str(suite), "--out", str(out)])
    prof = tmp_path / "prof.csv"
    assert main(["profile", "--records", str(out / "records.csv"),
                 "--out", str(prof)]) == 0
    assert prof.read_text().startswith("solver,tau,rho")
    # The records file keeps every wall time's repr, so the profiles it
    # gives are the run's, byte for byte.
    assert prof.read_bytes() == (out / "profiles.csv").read_bytes()


def test_env_seed_override(tmp_path, monkeypatch):
    suite = write_suite(tmp_path / "suite.json", runs=1,
                        solvers=["conjugate_subgradient"])
    out1, out2 = tmp_path / "o1", tmp_path / "o2"
    main(["run", "--suite", str(suite), "--out", str(out1)])
    monkeypatch.setenv("RCSOPT_SEED", "12345")
    main(["run", "--suite", str(suite), "--out", str(out2)])
    rec1 = r.records_from_csv((out1 / "records.csv").read_text())
    rec2 = r.records_from_csv((out2 / "records.csv").read_text())
    assert rec1[0].seed == 0
    assert rec2[0].seed == 12345


def _one_error_line(capsys, command):
    out, err = capsys.readouterr()
    assert out == ""
    assert len(err.splitlines()) == 1, err
    assert err.startswith(f"bench {command}: ")
    return err


# Suite fields of the wrong JSON type: each is bad input, not a traceback,
# and a number is never truncated to an integer.
BAD_FIELDS = {"runs_float": {"runs": 1.7}, "runs_bool": {"runs": True},
              "seed_float": {"base_seed": 2.9}, "sizes_int": {"sizes": 5},
              "solvers_string": {"solvers": "subgradient"},
              "configs_int": {"solver_configs": 5},
              "configs_null": {"solver_configs": None},
              "config_not_object": {"solver_configs": {"subgradient": 5}}}
# Solver configs whose values fail validation, not only their JSON type;
# each names its field.
NAN = float("nan")
BAD_CONFIGS = {"max_iters_float": {"max_iters": 1.5},
               "max_iters_bool": {"max_iters": True},
               "max_null_steps_zero": {"max_null_steps": 0},
               "max_null_steps_string": {"max_null_steps": "a"},
               "epsilon_stop_nan": {"epsilon_stop": NAN},
               "interval_tol_nan": {"ls": {"interval_tol": NAN}},
               "rho_nan": {"ls": {"rho": NAN}}}


@pytest.mark.parametrize("config,name", [
    ('{"epsilon_stop": 1e999}', "epsilon_stop"),
    ('{"ls": {"interval_tol": 1e999}}', "interval_tol")])
def test_run_rejects_infinite_tolerance(tmp_path, capsys, config, name):
    # json reads 1e999 as an infinity; neither tolerance may be one.
    suite = tmp_path / "suite.json"
    suite.write_text('{"kind": "rayleigh", "sizes": [[3, 4]], "runs": 1, '
                     '"solver_configs": {"conjugate_subgradient": '
                     + config + '}}')
    out = tmp_path / "out"
    assert main(["run", "--suite", str(suite), "--out", str(out)]) == 2
    err = _one_error_line(capsys, "run")
    assert str(suite) in err and name in err
    assert not out.exists()


@pytest.mark.parametrize("case", ["missing", "not_json", "no_kind",
                                  "bad_size", "negative_seed", "bad_config",
                                  "unknown_field", *BAD_FIELDS, *BAD_CONFIGS])
def test_run_rejects_bad_suite_file(tmp_path, capsys, case):
    suite = tmp_path / "suite.json"
    if case in BAD_FIELDS:
        write_suite(suite, **BAD_FIELDS[case])
    elif case in BAD_CONFIGS:
        # json writes NaN as a bare NaN token, which json.loads reads back.
        write_suite(suite, solver_configs={
            "conjugate_subgradient": BAD_CONFIGS[case]})
    elif case == "not_json":
        suite.write_text("{kind: rayleigh")
    elif case == "no_kind":
        write_suite(suite)
        spec = json.loads(suite.read_text())
        del spec["kind"]
        suite.write_text(json.dumps(spec))
    elif case == "bad_size":
        write_suite(suite, sizes=[[3]])
    elif case == "negative_seed":
        write_suite(suite, base_seed=-1)
    elif case == "bad_config":
        write_suite(suite, solver_configs={"subgradient": {"max_iter": 5}})
    elif case == "unknown_field":
        write_suite(suite, run=3)  # a misspelt field is not ignored
    out = tmp_path / "out"
    assert main(["run", "--suite", str(suite), "--out", str(out)]) == 2
    err = _one_error_line(capsys, "run")
    assert str(suite) in err
    if case in BAD_FIELDS:
        assert f"{next(iter(BAD_FIELDS[case]))} must" in err
    if case in BAD_CONFIGS:
        assert case.rsplit("_", 1)[0] in err
    assert not out.exists()


@pytest.mark.parametrize("jobs", ["0", "-2"])
def test_run_rejects_jobs_below_one(tmp_path, capsys, jobs):
    suite = write_suite(tmp_path / "suite.json")
    out = tmp_path / "out"
    assert main(["run", "--suite", str(suite), "--out", str(out),
                 "--jobs", jobs]) == 2
    assert "--jobs" in _one_error_line(capsys, "run")
    assert not out.exists()


def test_run_rejects_out_that_is_a_file(tmp_path, capsys):
    suite = write_suite(tmp_path / "suite.json")
    out = tmp_path / "out"
    out.write_text("keep")
    assert main(["run", "--suite", str(suite), "--out", str(out)]) == 2
    assert str(out) in _one_error_line(capsys, "run")
    assert out.read_text() == "keep"


@pytest.mark.parametrize("seed", ["abc", "-5"])
def test_run_rejects_bad_seed(tmp_path, capsys, monkeypatch, seed):
    suite = write_suite(tmp_path / "suite.json")
    out = tmp_path / "out"
    monkeypatch.setenv("RCSOPT_SEED", seed)
    assert main(["run", "--suite", str(suite), "--out", str(out)]) == 2
    assert "RCSOPT_SEED" in _one_error_line(capsys, "run")
    assert not out.exists()


def _edit_row(lines, key, edit):
    """The lines with ``edit`` applied to field ``key`` of the third row."""
    rec = json.loads(lines[2])
    rec[key] = edit(rec[key])
    return lines[:2] + [json.dumps(rec)] + lines[3:]


# Empty, truncated and malformed files: each is bad input, caught as the rows
# stream in, before any verdict line.
BAD_TRAJECTORIES = {
    "empty": lambda lines: [],
    "truncated": lambda lines: lines[:-1] + [lines[-1][:len(lines[-1]) // 2]],
    "x_cut": lambda lines: _edit_row(lines, "x", lambda x: x[:2]),
    "x_scaled": lambda lines: _edit_row(lines, "x",
                                        lambda x: [2.0 * v for v in x]),
    "eta_not_tangent": lambda lines: _edit_row(
        lines, "eta", lambda v: [a + b for a, b in
                                 zip(v, json.loads(lines[2])["x"])]),
    "gtilde_cut": lambda lines: _edit_row(lines, "gtilde", lambda v: v[1:]),
    "manifold_not_a_tag": lambda lines: _edit_row(lines, "manifold",
                                                  lambda tag: 5),
    "eta_norm_inf": lambda lines: _edit_row(lines, "eta_norm",
                                            lambda v: float("inf")),
}


@pytest.mark.parametrize("content", [None, "not json\n", '{"k": 1}\n',
                                     *BAD_TRAJECTORIES])
def test_check_rejects_unreadable_trajectory(tmp_path, capsys, content):
    path = tmp_path / "run.jsonl"
    if content in BAD_TRAJECTORIES:
        write_lines(path, BAD_TRAJECTORIES[content](trajectory_lines()))
    elif content is not None:
        path.write_text(content)
    assert main(["check", "--trajectory", str(path)]) == 2
    assert str(path) in _one_error_line(capsys, "check")


def _without_tangents(line):
    rec = json.loads(line)
    for key in ("manifold", "x", "eta", "gtilde"):
        del rec[key]
    return json.dumps(rec)


@pytest.mark.parametrize("first", ["tangent_rows", "scalar_rows"])
def test_check_rejects_mixed_tangent_rows(tmp_path, capsys, first):
    full = trajectory_lines()
    scalar = [_without_tangents(line) for line in full]
    head, tail = (full, scalar) if first == "tangent_rows" else (scalar, full)
    path = write_lines(tmp_path / "mixed.jsonl", head[:2] + tail[2:])
    assert main(["check", "--trajectory", str(path)]) == 2
    assert "tangent data" in _one_error_line(capsys, "check")


# One non-finite ortho among 300 rows: the 1% allowance for finite inner
# products (ORTHO_BAD_FRAC) must not absorb it.
LONG_ORTHO = {"ortho_nan_300_rows": float("nan"),
              "ortho_inf_300_rows": float("inf")}


@pytest.mark.parametrize("field", ["f", "eta_norm", "gtilde_norm", "ortho",
                                   "x", *LONG_ORTHO])
def test_check_fails_on_nan(tmp_path, capsys, field):
    # A NaN compares false with every tolerance; it must still fail.
    nan = float("nan")
    edit = (lambda x: [nan] + x[1:]) if field == "x" else (lambda v: nan)
    lines = trajectory_lines()
    if field in LONG_ORTHO:
        lines = trajectory_lines(20, 50, 0, 300, record=False)
        assert len(lines) > 100
        field, edit = "ortho", lambda v, bad=LONG_ORTHO[field]: bad
    path = write_lines(tmp_path / "nan.jsonl", _edit_row(lines, field, edit))
    code = main(["check", "--trajectory", str(path)])
    if field == "x":  # not a point of the sphere: bad input
        assert code == 2
        assert "finite" in _one_error_line(capsys, "check")
    else:
        assert code == 1
        out = capsys.readouterr().out
        assert "FAIL" in out
        if field == "ortho":
            assert "orthogonality: FAIL (1 non-finite, " in out


def test_check_memory_is_bounded_by_a_row(tmp_path, capsys):
    # The file streams through the check, so its peak heap is a few rows,
    # not the file.
    path = write_lines(tmp_path / "long.jsonl",
                       trajectory_lines(20, 50, 0, 1000))
    size = path.stat().st_size
    tracemalloc.start()
    try:
        assert main(["check", "--trajectory", str(path)]) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert size > 1_000_000
    assert peak < size / 10, (peak, size)
    assert "direction recursion: PASS" in capsys.readouterr().out


# A header and one data row with 4 of the 10 fields.
SHORT_ROW = r.records_to_csv([]) + "rayleigh-n3-m4-s0,subgradient,0,5\n"


@pytest.mark.parametrize("content", [None, "not,a,records,file\n",
                                     r.records_to_csv([]), SHORT_ROW])
def test_profile_rejects_unreadable_records(tmp_path, capsys, content):
    path = tmp_path / "records.csv"
    if content is not None:
        path.write_text(content)
    prof = tmp_path / "prof.csv"
    assert main(["profile", "--records", str(path), "--out", str(prof)]) == 2
    assert str(path) in _one_error_line(capsys, "profile")
    assert not prof.exists()


# Two problems, two solvers, every wall time 0.5.
FOUR_RECORDS = r.records_to_csv([
    r.BenchmarkRecord(problem=p, solver=s, seed=0, iters=3, nf=9,
                      wall_time_s=0.5, final_f=1.0)
    for p in ("a", "b") for s in ("cs", "sg")])


@pytest.mark.parametrize("case", ["directory", "missing_parent"])
def test_profile_rejects_unwritable_out(tmp_path, capsys, case):
    path = tmp_path / "records.csv"
    path.write_text(FOUR_RECORDS)
    prof = tmp_path / "prof"
    if case == "directory":
        prof.mkdir()
    else:
        prof = prof / "prof.csv"
    assert main(["profile", "--records", str(path), "--out", str(prof)]) == 2
    assert str(prof) in _one_error_line(capsys, "profile")
    assert prof.is_dir() if case == "directory" else not prof.parent.exists()


@pytest.mark.parametrize("wall_time_s", ["nan", "-3.0", "inf"])
def test_profile_rejects_bad_wall_time(tmp_path, capsys, wall_time_s):
    lines = FOUR_RECORDS.splitlines()
    lines[3] = lines[3].replace(",0.5,", f",{wall_time_s},")
    path = tmp_path / "records.csv"
    path.write_text("\n".join(lines) + "\n")
    prof = tmp_path / "prof.csv"
    assert main(["profile", "--records", str(path), "--out", str(prof)]) == 2
    err = _one_error_line(capsys, "profile")
    assert "row 4" in err and "wall_time_s" in err and wall_time_s in err
    assert not prof.exists()


def test_run_rejects_a_solver_named_twice(tmp_path, capsys, monkeypatch):
    calls = []
    monkeypatch.setitem(bench.SOLVERS, "subgradient",
                        lambda *a, **k: calls.append(a))
    suite = write_suite(tmp_path / "suite.json",
                        solvers=["subgradient", "subgradient"])
    out = tmp_path / "out"
    assert main(["run", "--suite", str(suite), "--out", str(out)]) == 2
    err = _one_error_line(capsys, "run")
    assert str(suite) in err and "'subgradient' is named twice" in err
    assert calls == [] and not out.exists()


@pytest.mark.parametrize("order", [1, -1])
def test_profile_rejects_a_repeated_pair(tmp_path, capsys, order):
    # Two rows for one (problem, solver) pair, in either order: without the
    # check, the later row decided whether the problem counted as solved.
    rows = [r.BenchmarkRecord(problem="p", solver="s", seed=0, iters=3, nf=9,
                              wall_time_s=t, final_f=f)
            for t, f in ((0.2, 0.5), (0.1, 1.0))][::order]
    path = tmp_path / "records.csv"
    path.write_text(r.records_to_csv(rows))
    prof = tmp_path / "prof.csv"
    assert main(["profile", "--records", str(path), "--out", str(prof)]) == 2
    err = _one_error_line(capsys, "profile")
    assert str(path) in err and "records 1 and 2" in err
    assert "'p'" in err and "'s'" in err
    assert not prof.exists()


def test_profile_rejects_a_solved_flag_it_did_not_write(tmp_path, capsys):
    lines = FOUR_RECORDS.splitlines()
    lines[2] = lines[2].replace(",1.0,,", ",1.0,True,")
    path = tmp_path / "records.csv"
    path.write_text("\n".join(lines) + "\n")
    prof = tmp_path / "prof.csv"
    assert main(["profile", "--records", str(path), "--out", str(prof)]) == 2
    err = _one_error_line(capsys, "profile")
    assert "row 3: solved" in err and "'True'" in err
    assert not prof.exists()


def test_bad_input_exits_2_without_traceback(tmp_path):
    proc = subprocess.run(
        [sys.executable, "-m", "rcsopt.cli", "run", "--suite",
         str(tmp_path / "missing.json"), "--out", str(tmp_path / "out")],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert "Traceback" not in proc.stderr
    assert len(proc.stderr.splitlines()) == 1


def test_installed_entry_point(tmp_path):
    suite = write_suite(tmp_path / "suite.json", runs=1,
                        solvers=["conjugate_subgradient"])
    out = tmp_path / "out"
    proc = subprocess.run(
        [sys.executable, "-m", "rcsopt.cli", "run", "--suite", str(suite),
         "--out", str(out)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert (out / "records.csv").exists()


def test_import_leaves_multiprocessing_out(tmp_path):
    # A serial run never needs a process pool, so importing the package and
    # its command line, a serial ``bench run`` and a ``bench profile`` pull
    # in neither multiprocessing nor the executor; the profiles are built
    # by sorting, which leaves numpy.ma out too.
    write_suite(tmp_path / "suite.json", runs=1)
    src = str(Path(r.__file__).resolve().parent.parent)
    code = ("import contextlib, io, sys, rcsopt, rcsopt.cli\n"
            "with contextlib.redirect_stdout(io.StringIO()):\n"
            "    assert rcsopt.cli.main(['run', '--suite', 'suite.json', "
            "'--out', 'out']) == 0\n"
            "    assert rcsopt.cli.main(['profile', '--records', "
            "'out/records.csv', '--out', 'prof.csv']) == 0\n"
            "print(sorted(m for m in sys.modules for p in "
            "('multiprocessing', 'concurrent', 'numpy.ma') "
            "if m == p or m.startswith(p + '.')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          cwd=tmp_path, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
    assert (tmp_path / "prof.csv").exists()
