import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "trajectory_digest.py"


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
        key, solver, iters, nf, stop, f_hex, sha = line.split()
        assert solver in ("conjugate_subgradient", "subgradient")
        assert int(iters) <= 5 and int(nf) >= int(iters)
        assert stop in ("max_iters", "stationary", "null_steps")
        float.fromhex(f_hex)
        assert len(sha) == 64
