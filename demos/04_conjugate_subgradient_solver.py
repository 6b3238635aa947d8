"""Running the conjugate subgradient solver and checking its identities.

Each iteration line-searches along the current direction, picks a pair of
directionally active subgradients at the final bracket endpoints, mixes them
into a subgradient orthogonal to the transported direction, and takes the
minimum-norm convex combination of its negative with the previous direction.
Objective values never increase, and the direction norms obey
1/||eta_k||^2 = sum_j 1/||gtilde_j||^2, which makes the recorded
trajectories fully checkable after the fact.

By default a trajectory row keeps only the scalars of its iteration, which
is all the descent, norm-recursion and orthogonality checks read.  Replaying
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
    print(f"{kind}(n={n}, m={m}): f {rows[0].f:.6f} -> {res.f:.6f} "
          f"in {res.iters} iterations ({res.nf} evaluations, "
          f"stop: {res.stop_reason})")
    print(f"  descent violations:      {r.descent_violations(rows)}")
    print(f"  norm-recursion residual: {r.norm_recursion_residual(rows):.2e}")
    print(f"  direction residual:      {r.fr_direction_check(rows):.2e}")
    bad, total = r.orthogonality_violations(rows)
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
# and a few hundred bytes per iteration whatever the problem size.
print("unrecorded rows keep x:", res.trajectory[-1].x,
      "| norm-recursion residual:",
      f"{r.norm_recursion_residual(res.trajectory):.2e}")

# Trajectories export as JSON lines; with tangent data (a recorded solve)
# they can be replayed by the `bench check` command.
res = r.conjugate_subgradient_solve(oracle, x0, seed=0, record=True)
text = r.trajectory_to_jsonl(res.trajectory, include_tangents=True)
rows = r.trajectory_from_jsonl(text)
print("replayed direction residual:", r.fr_direction_check(rows))
