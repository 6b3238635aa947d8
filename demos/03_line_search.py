"""The bracketing line search and its interval reduction loop.

The solver minimizes the restriction l(t) = f(R_x(t v)) of the objective to
a retraction ray.  The interval reduction keeps a bracket [tau_lo, tau_hi]
around a one-dimensional local minimizer: the lower bound only moves to
points that strictly improve on it, the upper bound moves when the trial is
worse or the slope turns positive, and the trial point is the midpoint
clamped away from the edges.  It stops at a point with l'_- <= 0 <= l'_+ or
when the bracket is narrower than 1e-6.

``line_search(oracle, x, v, cfg, f0)`` takes f0 = f(x) as l(0) and reads
the objective through the oracle's ``restrict`` ray: it answers values,
slopes and the endpoint subgradients in closed form, so the search makes no
other oracle call.  The search reads l once per trial, so its evaluations
are its trials.  The result holds what the solver's direction update reads;
the slopes at the final bracket are read from the ray itself.  When f
decreases against the direction, the search runs forward on the ray along
-v and reports a negative step; a backward search that finds no decrease
reports t = -0.0, which equals 0.
"""

import numpy as np

import rcsopt as r
from rcsopt.linesearch import LineSearchConfig, irp, irp_records, line_search

# --- interval reduction on a plain scalar function ---------------------------
class Curve:
    def __init__(self, f, d):
        self.f, self.d = f, d

    def value(self, t):
        return self.f(t)

    def slopes(self, t):
        # (l'_+(t), l'_-(t)): equal, as the curve is smooth.
        return self.d(t), self.d(t)


curve = Curve(lambda t: (t - 2.0) ** 2, lambda t: 2.0 * (t - 2.0))
# Start bracket: first trial 1, upper bound 100 (the config's defaults);
# irp is handed l(0) and never reads it.
tau, l_tau, lo, hi, approx, iters = irp(curve, LineSearchConfig(),
                                        start=(1.0, 100.0), l0=curve.value(0.0))
print(f"parabola with minimum at 2: tau* = {tau:.8f}, l(tau*) = {l_tau:.1e} "
      f"after {iters} trials (bracket [{lo:.7f}, {hi:.7f}])")

# --- the same machinery on a manifold objective ------------------------------
oracle = r.generate_instance("rayleigh", n=5, m=30, seed=3)
rng = np.random.default_rng(3)
x = oracle.manifold.random_point(rng)
g = oracle.active_subgrad(x, oracle.manifold.random_tangent(x, rng))
eta = -1.0 * g  # steepest-descent-like ray

trace = []
f = oracle.value(x)
res = line_search(oracle, x, eta, LineSearchConfig(), f0=f, trace=trace)
ray = oracle.restrict(x, eta)  # the search's ray (res.sign is +1 here)
print(f"\n{type(ray).__name__}: step t = {res.t:.6f}  "
      f"f: {f:.6f} -> {res.phi_at_t:.6f}")
print(f"bracket [{res.tau_lo_final:.8f}, {res.tau_hi_final:.8f}], "
      f"{res.evals} trials, one evaluation each")
print("slope at entry:", ray.slopes(0.0)[0],
      " slopes at the final bracket:", ray.slopes(res.tau_lo_final)[1],
      ray.slopes(res.tau_hi_final)[0])

# The trace holds one tuple per trial; irp_records reads it back as dicts.
print("\nfirst bracket updates:")
for rec in list(irp_records(trace))[:6]:
    print(f"  i={rec['i']:2d} [{rec['tau_lo']:10.5f}, {rec['tau_hi']:10.5f}] "
          f"trial {rec['tau']:10.5f} -> {rec['branch']}")

# The endpoint subgradients come back transported to the accepted point and
# feed the solver's direction update.
print("\nendpoint subgradients live at the new point:",
      r.same_point(res.g_plus.base, res.x_new))

# Along -eta the slope at 0 is positive: the search restricts the oracle to
# -(-eta) = eta and takes the same step, reported as negative.
back = line_search(oracle, x, -1.0 * eta, LineSearchConfig(), f0=f)
print(f"along -eta: step t = {back.t:.6f} (sign {back.sign:+d}), "
      f"same point: {r.same_point(back.x_new, res.x_new)}")

# A point that is already optimal along +/- eta produces a null step.
med = r.GeometricMedian(2, 1, np.array([[0.0, 0.0, 1.0]]), np.array([1.0]))
S = r.Sphere(3)
x0 = S.point([0.0, 0.0, 1.0])
res0 = line_search(med, x0, S.tangent(x0, [1.0, 0.0, 0.0]),
                   LineSearchConfig(), f0=med.value(x0))
print("\nat the median's data point: t =", res0.t,
      " null step:", res0.sign == 0)
