"""The three benchmark objectives and their subgradient oracles.

Each oracle reports the objective value, the one-sided directional
derivative f'(x; xi), and a directionally active subgradient: a Clarke
subgradient g with <g, xi> = f'(x; xi).  At smooth points g is simply the
Riemannian gradient; at kinks it depends on the query direction.
"""

import numpy as np

import rcsopt as r
from rcsopt import retract

rng = np.random.default_rng(1)

# --- max of Rayleigh quotients: nonsmooth where several quadratics tie ------
oracle = r.generate_instance("rayleigh", n=5, m=30, seed=0)
x = oracle.manifold.random_point(rng)
xi = oracle.manifold.random_tangent(x, rng)
print("rayleigh value:", oracle.value(x))
print("directional derivative:", oracle.dir_deriv(x, xi))

# f'(x; xi) is <g, xi> for that g; the line search reads the same slope in
# closed form from the objective restricted to the ray t -> R_x(t xi).
g = oracle.active_subgrad(x, xi)
print("defining property <g, xi> - ray slope at t = 0:",
      r.inner(g, xi) - oracle.restrict(x, xi).slopes(0.0)[0])

# Compare against a one-sided finite difference along the retraction ray.
t = 1e-6
fd = (oracle.value(retract(x, t * xi)) - oracle.value(x)) / t
print("finite-difference check:", abs(oracle.dir_deriv(x, xi) - fd))

# At a kink the two one-sided slopes disagree; the max structure keeps
# f'(x; xi) + f'(x; -xi) >= 0.
print("kink gauge f'(x;xi) + f'(x;-xi):",
      oracle.dir_deriv(x, xi) + oracle.dir_deriv(x, -xi))

# --- geometric median: nonsmooth exactly at the data points -----------------
med = r.generate_instance("median", n=4, m=10, seed=0)
x0 = med.manifold.point(med.points[3])  # stand on a data point
d = med.manifold.random_tangent(x0, rng)
print("\nmedian value at a data point:", med.value(x0))
print("slope away from it:", med.dir_deriv(x0, d),
      "(the coincident term contributes its weight", med.weights[3], ")")

# --- center of mass of SPD matrices: smooth, unique minimizer ----------------
com = r.generate_instance("karcher", n=4, m=12, seed=0)
X = com.manifold.random_point(rng)
V = com.manifold.random_tangent(X, rng)
print("\ncenter-of-mass value:", com.value(X))
print("gradient norm:", r.norm(com.active_subgrad(X, V)))

# Instances serialize to JSON; by default only (kind, n, m, seed) is kept
# and the matrices regenerate bit-identically.
text = r.instance_to_json(com)
again = r.instance_from_json(text)
print("instance JSON round trip:", again.value(X) == com.value(X))
