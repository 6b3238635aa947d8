"""Geometry walkthrough: points, tangents, retraction, transport, distance.

The library works on two manifolds: the unit sphere S^n (vectors of unit
Euclidean norm, projected retraction) and SPD(n) (symmetric positive definite
matrices with the affine-invariant metric, exponential-map retraction).  Both
use parallel transport along connecting geodesics, which preserves norms.
"""

import numpy as np

import rcsopt as r

rng = np.random.default_rng(0)

# --- Sphere -----------------------------------------------------------------
S = r.Sphere(4)  # S^3 embedded in R^4
x = S.random_point(rng)
print("point on S^3:", x.data, " norm:", np.linalg.norm(x.data))

# Tangent vectors are built by projecting ambient vectors onto T_x.
xi = S.tangent(x, rng.standard_normal(4))
print("tangency <xi, x> =", np.dot(xi.data, x.data))

# Retraction: walk along xi, then renormalize.
eta = 0.7 * S.random_tangent(x, rng)
y = r.retract(x, eta)
print("retracted point norm:", np.linalg.norm(y.data))
print("distance x -> y:", r.distance(x, y), "(arc length)")

# Parallel transport carries xi to the tangent space at y without stretching.
carried = r.transport_between(x, y, xi)
print("norms before/after transport:", r.norm(xi), r.norm(carried))
print("carried vector tangent at y:", abs(np.dot(carried.data, y.data)) < 1e-12)

# --- SPD matrices -----------------------------------------------------------
P = r.SPD(3)
X = P.random_point(rng)
print("\nSPD point eigenvalues:", np.linalg.eigvalsh(X.data))

# The metric is tr(X^-1 u X^-1 v): scale-invariant in X.
u = P.random_tangent(X, rng)
v = P.random_tangent(X, rng)
print("inner(u, v) =", r.inner(u, v))

# The exponential retraction reaches any SPD matrix; distances use logm.
Y = r.retract(X, 1.5 * u)
print("distance X -> Y:", r.distance(X, Y), "= ||1.5 u|| =", r.norm(1.5 * u))

carried = r.transport_between(X, Y, v)
print("transport isometry gap:", abs(r.norm(carried) - r.norm(v)))

# Retraction at zero is the identity, and transports compose with it.
print("R_X(0) == X:", np.allclose(r.retract(X, P.zero_tangent(X)).data, X.data))
