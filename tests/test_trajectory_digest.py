import importlib.util
import subprocess
import sys
from pathlib import Path

import rcsopt as r

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "trajectory_digest.py"


def _tool():
    spec = importlib.util.spec_from_file_location("trajectory_digest", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def test_two_runs_print_identical_lines():
    cmd = [sys.executable, str(TOOL), "--workload", "bench-trace",
           "--seed", "1", "--max-iters", "5"]
    outs = [subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                           check=True, timeout=60).stdout for _ in range(2)]
    assert outs[0] == outs[1]
    lines = outs[0].splitlines()
    # Six suite instances, each solved by both solvers.
    assert len(lines) == 12
    for line in lines:
        key, solver, iters, nf, stop, f_hex, sha, irp_sha = line.split()
        assert solver in ("conjugate_subgradient", "subgradient")
        assert int(iters) <= 5 and int(nf) >= int(iters)
        assert stop in ("max_iters", "stationary", "null_steps")
        float.fromhex(f_hex)
        assert len(sha) == 64
        # Only the conjugate subgradient solve runs line searches.
        if solver == "conjugate_subgradient":
            assert len(irp_sha) == 64 and irp_sha != sha
        else:
            assert irp_sha == "-"


def test_irp_digest_covers_each_trial_value():
    # A trial value that moves while its comparison still fails leaves every
    # iterate alone; the IRP hash still changes.
    tool = _tool()
    trace = [{"i": 1, "tau_lo": 0.0, "tau": 1.0, "tau_hi": 1.0,
              "l_tau": 2.5, "l_lo": 2.0, "branch": "upper"},
             {"i": 2, "tau_lo": 0.0, "tau": 0.5, "tau_hi": 0.5,
              "l_tau": 2.25, "l_lo": 2.0, "branch": "upper"}]
    base = tool.irp_digest(trace)
    assert base == tool.irp_digest([dict(rec) for rec in trace])
    for name, value in (("l_tau", 2.2500000000000004), ("l_lo", 1.5),
                        ("tau", 0.25), ("branch", "lower")):
        moved = [dict(rec) for rec in trace]
        moved[1][name] = value
        assert tool.irp_digest(moved) != base, name


def test_rows_digest_the_loop_transported_direction(monkeypatch):
    # Rows keep no d; the tool derives it, and what it hashes is the d the
    # solve loop handed to direction_update, bit for bit, with nothing (-)
    # for row 1 and for subgradient rows.
    tool = _tool()
    calls = []
    core = r.solver.direction_update

    def recorded(g, d, ng2, nd2):
        calls.append(d)
        return core(g, d, ng2, nd2)

    monkeypatch.setattr(r.solver, "direction_update", recorded)
    oracle = r.generate_instance("rayleigh", 5, 20, seed=3)
    x0 = r.initial_point("rayleigh", 5, 3)
    cfg = r.SolverConfig(max_iters=30)
    rows = r.conjugate_subgradient_solve(oracle, x0, cfg, seed=3,
                                         record=True).trajectory
    assert len(calls) == len(rows) - 1 >= 1
    assert tool.row_arrays(None, rows[0])[3] is None
    for d, prev, row in zip(calls, rows, rows[1:]):
        x, eta, gtilde, got = tool.row_arrays(prev, row)
        assert (x, eta, gtilde) == (row.x, row.eta, row.gtilde)
        assert got.data.tobytes() == d.tobytes()
    sg = r.subgradient_descent_solve(oracle, x0, cfg, seed=3,
                                     record=True).trajectory
    assert all(tool.row_arrays(prev, row)[3] is None
               for prev, row in zip(sg, sg[1:]))
