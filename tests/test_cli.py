import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rcsopt as r
from rcsopt.cli import main


def write_suite(path, **kw):
    spec = {"kind": "rayleigh", "sizes": [[3, 4]], "runs": 2, "base_seed": 0,
            "solvers": ["conjugate_subgradient", "subgradient"],
            "solver_configs": {"conjugate_subgradient": {"max_iters": 40},
                               "subgradient": {"max_iters": 60}}}
    spec.update(kw)
    path.write_text(json.dumps(spec))
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
    oracle = r.generate_instance("rayleigh", 3, 4, seed=1)
    x0 = r.initial_point("rayleigh", 3, 1)
    res = r.conjugate_subgradient_solve(oracle, x0,
                                        r.SolverConfig(max_iters=120), seed=1)
    path = tmp_path / "scalars.jsonl"
    path.write_text(r.trajectory_to_jsonl(res.trajectory))
    assert main(["check", "--trajectory", str(path)]) == 0
    assert "skipped" in capsys.readouterr().out


def test_check_flags_broken_trajectory(tmp_path, capsys):
    oracle = r.generate_instance("rayleigh", 3, 4, seed=2)
    x0 = r.initial_point("rayleigh", 3, 2)
    res = r.conjugate_subgradient_solve(oracle, x0,
                                        r.SolverConfig(max_iters=30), seed=2)
    lines = r.trajectory_to_jsonl(res.trajectory).splitlines()
    rec = json.loads(lines[2])
    rec["f"] = rec["f"] + 10.0  # inject an objective increase
    lines[2] = json.dumps(rec)
    path = tmp_path / "broken.jsonl"
    path.write_text("\n".join(lines) + "\n")
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
    err = capsys.readouterr().err
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


@pytest.mark.parametrize("case", ["missing", "not_json", "no_kind",
                                  "bad_size", "negative_seed", "bad_config",
                                  "unknown_field", *BAD_FIELDS])
def test_run_rejects_bad_suite_file(tmp_path, capsys, case):
    suite = tmp_path / "suite.json"
    if case in BAD_FIELDS:
        write_suite(suite, **BAD_FIELDS[case])
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


@pytest.mark.parametrize("content", [None, "not json\n", '{"k": 1}\n'])
def test_check_rejects_unreadable_trajectory(tmp_path, capsys, content):
    path = tmp_path / "run.jsonl"
    if content is not None:
        path.write_text(content)
    assert main(["check", "--trajectory", str(path)]) == 2
    assert str(path) in _one_error_line(capsys, "check")


@pytest.mark.parametrize("content", [None, "not,a,records,file\n",
                                     r.records_to_csv([])])
def test_profile_rejects_unreadable_records(tmp_path, capsys, content):
    path = tmp_path / "records.csv"
    if content is not None:
        path.write_text(content)
    prof = tmp_path / "prof.csv"
    assert main(["profile", "--records", str(path), "--out", str(prof)]) == 2
    assert str(path) in _one_error_line(capsys, "profile")
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


def test_import_leaves_multiprocessing_out():
    # A serial run never needs a process pool, so importing the package and
    # its command line pulls in neither multiprocessing nor the executor.
    src = str(Path(r.__file__).resolve().parent.parent)
    code = ("import sys, rcsopt, rcsopt.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] in "
            "('multiprocessing', 'concurrent')))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src},
                          timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
