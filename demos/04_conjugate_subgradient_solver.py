"""Running the conjugate subgradient solver and checking its identities.

Each iteration line-searches along the current direction, picks a pair of
directionally active subgradients at the final bracket endpoints, mixes them
into a subgradient orthogonal to the transported direction, and takes the
minimum-norm convex combination of its negative with the previous direction.
Objective values never increase, and the direction norms obey
1/||eta_k||^2 = sum_j 1/||gtilde_j||^2, which makes the recorded
trajectories fully checkable after the fact.

``check_trajectory`` checks all of them in one pass over the rows.  By
default a trajectory row keeps only the scalars of its iteration, which is
all the descent, norm-recursion and orthogonality checks read.  Replaying
the Fletcher-Reeves form of the direction recursion needs each row's point
and tangent vectors, which a solve keeps when called with ``record=True``.
"""

import numpy as np

import rcsopt as r

cfg = r.SolverConfig(max_iters=300)

for kind, n, m in (("rayleigh", 10, 50), ("median", 20, 50), ("karcher", 4, 20)):
    oracle = r.generate_instance(kind, n, m, seed=7)
    x0 = r.initial_point(kind, n, 7)
    res = r.conjugate_subgradient_solve(oracle, x0, cfg, seed=7, record=True)
    rows = res.trajectory
    check = r.check_trajectory(rows)
    print(f"{kind}(n={n}, m={m}): f {rows[0].f:.6f} -> {res.f:.6f} "
          f"in {res.iters} iterations ({res.nf} evaluations, "
          f"stop: {res.stop_reason})")
    print(f"  descent violations:      {check.descent_violations}")
    print(f"  norm-recursion residual: {check.norm_residual:.2e}")
    print(f"  direction residual:      {check.fr_residual:.2e}")
    bad, total = check.orthogonality
    print(f"  orthogonality:           {total - bad}/{total} within tolerance")

# The smooth single-matrix problem has a known optimum: half the smallest
# eigenvalue of A over the sphere.
A = np.diag([3.0, 1.0, 2.0, 5.0])
oracle = r.RayleighQuotientMax(3, 1, A[None])
x0 = r.Sphere(4).random_point(np.random.default_rng(0))
res = r.conjugate_subgradient_solve(oracle, x0, seed=0)
print(f"\nsingle quadratic: reached {res.f:.12f}, target 0.5")

# The plain subgradient baseline shares the trajectory schema but carries no
# descent guarantee; it serves as the comparison solver in the benchmarks.
base = r.subgradient_descent_solve(oracle, x0, r.SolverConfig(max_iters=2000),
                                   seed=0)
print(f"subgradient baseline:  reached {base.f:.12f} "
      f"after {base.iters} iterations")

# The default solve keeps scalar rows only: enough for the scalar checks,
# and about 390 B per iteration whatever the problem size.  The
# direction replay is then skipped (fr_residual is None).
check = r.check_trajectory(res.trajectory)
print("unrecorded rows keep x:", res.trajectory[-1].x,
      f"| norm-recursion residual: {check.norm_residual:.2e}",
      "| direction residual:", check.fr_residual)

# Trajectories export as JSON lines; with tangent data (a recorded solve)
# they can be replayed by the `bench check` command.  The parser yields one
# row at a time, so the check can read a file as it streams.
res = r.conjugate_subgradient_solve(oracle, x0, seed=0, record=True)
lines = list(r.trajectory_lines(res.trajectory, include_tangents=True))
check = r.check_trajectory(r.trajectory_from_jsonl(lines))
print("replayed direction residual:", check.fr_residual)
