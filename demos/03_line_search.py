"""The bracketing line search and its interval reduction loop.

The solver minimizes the restriction l(t) = f(R_x(t v)) of the objective to
a retraction ray.  The interval reduction keeps a bracket [tau_lo, tau_hi]
around a one-dimensional local minimizer: the lower bound only moves to
points that strictly improve on it, the upper bound moves when the trial is
worse or the slope turns positive, and the trial point is the midpoint
clamped away from the edges.  It stops at a point with l'_- <= 0 <= l'_+ or
when the bracket is narrower than 1e-6.

The solver's own path, ``ray_objective``, takes the oracle's ``restrict``
ray: it answers values, slopes and the endpoint subgradients in closed form,
so the search makes no oracle call.  The generic ``RayObjective`` retracts
to every trial point and asks the oracle; it picks the same step.
"""

import numpy as np

import rcsopt as r
from rcsopt.linesearch import (LineSearchConfig, RayObjective, irp,
                               line_search, ray_objective)

# --- interval reduction on a plain scalar function ---------------------------
class Curve:
    def __init__(self, f, d):
        self.f, self.d = f, d

    def value(self, t):
        return self.f(t)

    def right_deriv(self, t):
        return self.d(t)

    def left_deriv(self, t):
        return self.d(t)


curve = Curve(lambda t: (t - 2.0) ** 2, lambda t: 2.0 * (t - 2.0))
tau, lo, hi, approx, iters = irp(curve, LineSearchConfig())
print(f"parabola with minimum at 2: tau* = {tau:.8f} "
      f"after {iters} trials (bracket [{lo:.7f}, {hi:.7f}])")

# --- the same machinery on a manifold objective ------------------------------
oracle = r.generate_instance("rayleigh", n=5, m=30, seed=3)
rng = np.random.default_rng(3)
x = oracle.manifold.random_point(rng)
g = oracle.active_subgrad(x, oracle.manifold.random_tangent(x, rng))
eta = -1.0 * g  # steepest-descent-like ray

trace = []
pf = ray_objective(oracle, x, eta, f0=oracle.value(x))  # the solver's path
res = line_search(pf, LineSearchConfig(), trace=trace)
print(f"\n{type(pf).__name__}: step t = {res.t:.6f}  "
      f"f: {res.phi0:.6f} -> {res.phi_at_t:.6f}")
print(f"bracket [{res.tau_lo_final:.8f}, {res.tau_hi_final:.8f}], "
      f"{res.irp_iters} interval reductions, {res.evals} evaluations")
print("slope at entry:", res.dplus0,
      " slopes at the final bracket:", res.dminus_at_lo, res.dplus_at_hi)

print("\nfirst bracket updates:")
for rec in trace[:6]:
    print(f"  i={rec['i']:2d} [{rec['tau_lo']:10.5f}, {rec['tau_hi']:10.5f}] "
          f"trial {rec['tau']:10.5f} -> {rec['branch']}")

# The endpoint subgradients come back transported to the accepted point and
# feed the solver's direction update.
print("\nendpoint subgradients live at the new point:",
      r.same_point(res.g_plus.base, res.x_new))

# The generic ray asks the oracle at each retracted trial point instead.
ref = line_search(RayObjective(oracle, x, eta, f0=oracle.value(x)),
                  LineSearchConfig())
gap = r.norm(res.g_plus - ref.g_plus) / r.norm(ref.g_plus)
print(f"RayObjective: step t = {ref.t:.6f} (same step: {ref.t == res.t}), "
      f"{ref.evals} evaluations, g_plus relative gap {gap:.1e}")

# A point that is already optimal along +/- eta produces a null step.
med = r.GeometricMedian(2, 1, np.array([[0.0, 0.0, 1.0]]), np.array([1.0]))
S = r.Sphere(3)
x0 = S.point([0.0, 0.0, 1.0])
res0 = line_search(ray_objective(med, x0, S.tangent(x0, [1.0, 0.0, 0.0])),
                   LineSearchConfig())
print("\nat the median's data point: t =", res0.t, " null step:", res0.null)
