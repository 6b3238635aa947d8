"""Independent reference computations used to freeze expected test values.

Everything here is deliberately built on different machinery than the library
(ODE integration, finite differences, dense grids, double loops) so the tests
compare two independent routes to the same quantity.
"""

from collections import Counter
from contextlib import contextmanager

import numpy as np
from scipy.integrate import solve_ivp


def sphere_transport_ode(x, y, v, rtol=1e-12, atol=1e-14):
    """Parallel transport of v along the great circle from x to y by ODE.

    Integrates V' = -<V, gamma'> gamma along the unit-speed geodesic, the
    embedded form of the parallel transport equation on the sphere.
    """
    x = np.asarray(x, float)
    y = np.asarray(y, float)
    c = float(np.clip(np.dot(x, y), -1.0, 1.0))
    theta = np.arccos(c)
    if theta < 1e-15:
        return np.asarray(v, float).copy()
    u = y - c * x
    u = u / np.linalg.norm(u)

    def rhs(s, state):
        gamma = np.cos(s) * x + np.sin(s) * u
        dgamma = -np.sin(s) * x + np.cos(s) * u
        return -np.dot(state, dgamma) * gamma

    sol = solve_ivp(rhs, (0.0, theta), np.asarray(v, float), rtol=rtol,
                    atol=atol, dense_output=False)
    return sol.y[:, -1]


def spd_transport_ode(x, v, xi, rtol=1e-11, atol=1e-13):
    """Parallel transport of xi along the SPD geodesic t -> exp map of t*v.

    Integrates W' = (gamma' gamma^-1 W + W gamma^-1 gamma') / 2, the parallel
    transport equation of the affine-invariant connection.
    """
    x = np.asarray(x, float)
    v = np.asarray(v, float)
    n = x.shape[0]
    w, q = np.linalg.eigh(x)
    rt = (q * np.sqrt(w)) @ q.T
    irt = (q / np.sqrt(w)) @ q.T
    s = irt @ v @ irt

    def gamma(t):
        ws, qs = np.linalg.eigh((s + s.T) / 2)
        return rt @ ((qs * np.exp(t * ws)) @ qs.T) @ rt

    def dgamma(t):
        ws, qs = np.linalg.eigh((s + s.T) / 2)
        core = (qs * (ws * np.exp(t * ws))) @ qs.T
        return rt @ core @ rt

    def rhs(t, state):
        W = state.reshape(n, n)
        g = gamma(t)
        dg = dgamma(t)
        gi = np.linalg.inv(g)
        out = 0.5 * (dg @ gi @ W + W @ gi @ dg)
        return out.ravel()

    sol = solve_ivp(rhs, (0.0, 1.0), np.asarray(xi, float).ravel(),
                    rtol=rtol, atol=atol)
    out = sol.y[:, -1].reshape(n, n)
    return 0.5 * (out + out.T)


def fd_dir_deriv(oracle, x, xi, t=1e-6):
    """One-sided finite difference of f along the retraction ray."""
    from rcsopt import retract
    return (oracle.value(retract(x, t * xi)) - oracle.value(x)) / t


def rayleigh_active_components(oracle, x, tol=1e-10):
    """(indices, gradients) of the Rayleigh components active at x.

    Component i is active when 1/2 x^T A_i x is within tol (1 + |max|) of
    the largest; its Riemannian gradient is A_i x - (x^T A_i x) x.  Both are
    computed one matrix at a time from ``oracle.mats``, in increasing index.
    """
    x = np.asarray(x.data, float)
    vals = [0.5 * float(np.dot(x, np.dot(a, x))) for a in oracle.mats]
    top = max(vals)
    idx = [i for i, v in enumerate(vals) if v >= top - tol * (1.0 + abs(top))]
    grads = [np.dot(oracle.mats[i], x) - 2.0 * vals[i] * x for i in idx]
    return np.array(idx), np.array(grads)


def fd_riemannian_gradient(oracle, x, h=1e-6):
    """Central-difference gradient in an orthonormal tangent basis."""
    from rcsopt import TangentVector, retract, inner
    m = x.manifold
    basis = tangent_basis(x)
    coefs = []
    for e in basis:
        fp = oracle.value(retract(x, h * e))
        fm = oracle.value(retract(x, (-h) * e))
        coefs.append((fp - fm) / (2.0 * h))
    g = m.zero_tangent(x)
    for c, e in zip(coefs, basis):
        g = g + c * e
    return g


def tangent_basis(x):
    """Orthonormal basis of T_x via Gram-Schmidt on projected coordinates."""
    from rcsopt import inner
    m = x.manifold
    raw = []
    if x.data.ndim == 1:
        dim = x.data.size
        for i in range(dim):
            e = np.zeros(dim)
            e[i] = 1.0
            raw.append(m.tangent(x, e))
    else:
        n = x.data.shape[0]
        for i in range(n):
            for j in range(i, n):
                e = np.zeros((n, n))
                e[i, j] = e[j, i] = 1.0
                raw.append(m.tangent(x, e))
    basis = []
    for v in raw:
        for b in basis:
            v = v - inner(v, b) * b
        nv = np.sqrt(max(inner(v, v), 0.0))
        if nv > 1e-10:
            basis.append((1.0 / nv) * v)
    return basis


def geodesic_grid_min(oracle, a, b, samples=100_000):
    """Minimum of the objective over a dense grid of the geodesic arc a->b."""
    from rcsopt import Sphere
    a = np.asarray(a.data if hasattr(a, "data") else a, float)
    b = np.asarray(b.data if hasattr(b, "data") else b, float)
    c = float(np.clip(np.dot(a, b), -1.0, 1.0))
    theta = np.arccos(c)
    u = b - c * a
    u = u / np.linalg.norm(u)
    ts = np.linspace(0.0, theta, samples)
    sphere = oracle.manifold
    best = np.inf
    # Vectorized objective on the arc for the median family.
    pts = np.cos(ts)[:, None] * a + np.sin(ts)[:, None] * u
    if hasattr(oracle, "points"):
        vals = np.arccos(np.clip(pts @ oracle.points.T, -1, 1)) @ oracle.weights
        return float(vals.min())
    for row in pts:
        best = min(best, oracle.value(sphere.point(row)))
    return best


def grid_min_norm_alpha(gtilde, d, samples=200_001):
    """Brute-force argmin over alpha in [0,1] of || -a*gtilde + (1-a)*d ||."""
    from rcsopt import inner
    gg, gd, dd = inner(gtilde, gtilde), inner(gtilde, d), inner(d, d)
    alphas = np.linspace(0.0, 1.0, samples)
    b = 1.0 - alphas
    # ||-a g + b d||^2 expanded in the Gram entries of g and d.
    vals = np.sqrt(np.maximum(alphas * alphas * gg - 2.0 * alphas * b * gd
                              + b * b * dd, 0.0))
    i = int(np.argmin(vals))
    return float(alphas[i]), float(vals[i])


def brute_force_ratios(records, solver):
    """Direct double-loop ratios r_ps over adjudicated benchmark records,
    one per problem in sorted order, inf where the solver did not solve."""
    import math
    problems = sorted({r.problem for r in records})
    ratios = []
    for p in problems:
        times = {}
        for r in records:
            if r.problem == p:
                times[r.solver] = (max(r.wall_time_s, 1e-9)
                                   if r.solved else math.inf)
        best = min(times.values())
        t = times.get(solver, math.inf)
        ratios.append(t / best if math.isfinite(best) and math.isfinite(t)
                      else math.inf)
    return ratios


def brute_force_profile(records, solver, tau):
    """rho_s(tau): the share of problems whose brute-force ratio is <= tau."""
    ratios = brute_force_ratios(records, solver)
    return sum(r_ps <= tau for r_ps in ratios) / len(ratios)


# ---------------------------------------------------------------------------
# The sphere's raw geometry in its earlier numpy form (np.clip, np.linalg.norm,
# np.cos/np.sin, np.dot).  The library's scalar paths must return the same
# bits; these are the references for that check.
# ---------------------------------------------------------------------------

def sphere_project_np(x, v):
    return v - np.dot(v, x) * x


def sphere_norm_np(v):
    return float(np.sqrt(max(float(np.dot(v, v)), 0.0)))


def sphere_retract_np(x, v):
    w = x + v
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        raise ValueError("x + eta is numerically zero")
    return w / nw


def sphere_transport_np(a, b, v):
    c = float(np.clip(np.dot(a, b), -1.0, 1.0))
    if c <= -1.0 + 1e-14:
        raise ValueError("antipodal endpoints")
    w = b - c * a
    nw = np.linalg.norm(w)
    if nw < 1e-14:
        return sphere_project_np(b, v)
    u = w / nw
    theta = np.arccos(c)
    vu = np.dot(v, u)
    out = v - vu * u + vu * (np.cos(theta) * u - np.sin(theta) * a)
    return sphere_project_np(b, out)


# ---------------------------------------------------------------------------
# The line search's ray by retraction and oracle calls.  The closed-form
# ``restrict`` rays must answer the same values, slopes and subgradients.
# ---------------------------------------------------------------------------

class GenericRay:
    """The objective on the ray t -> R_x(t v), answered at y = R_x(t v) by
    the oracle's value / dir_deriv / active_subgrad along d, the direction v
    carried to y by parallel transport (y = x and d = v at t = 0)."""

    def __init__(self, oracle, x, v):
        self.oracle, self.x, self.v = oracle, x, v
        self._at = {0.0: (x, v)}

    def _point_and_direction(self, t):
        from rcsopt import retract, transport_between
        at = self._at.get(t)
        if at is None:
            y = retract(self.x, t * self.v)
            at = self._at[t] = (y, transport_between(self.x, y, self.v))
        return at

    def value(self, t):
        return self.oracle.value(self._point_and_direction(t)[0])

    def slopes(self, t):
        y, d = self._point_and_direction(t)
        return self.oracle.dir_deriv(y, d), -self.oracle.dir_deriv(y, -d)

    def subgrad(self, t, forward):
        y, d = self._point_and_direction(t)
        return self.oracle.active_subgrad(y, d if forward else -d).data


class GenericOnly:
    """Oracle proxy whose ``restrict`` is the :class:`GenericRay` and whose
    ``value_and_subgrad`` is the two single calls: the reference path a
    closed-form solve is compared with."""

    def __init__(self, oracle):
        self.oracle = oracle
        self.manifold = oracle.manifold

    def value(self, x):
        return self.oracle.value(x)

    def dir_deriv(self, x, xi):
        return self.oracle.dir_deriv(x, xi)

    def active_subgrad(self, x, xi):
        return self.oracle.active_subgrad(x, xi)

    def value_and_subgrad(self, x, xi):
        return self.value(x), self.active_subgrad(x, xi)

    def restrict(self, x, v):
        return GenericRay(self, x, v)


class SpyRay:
    """Ray proxy that counts method calls into ``calls`` and, when given a
    ``log`` list, appends each call's (name, *args) to it; ``hide`` names
    methods it lacks."""

    def __init__(self, ray, hide=(), calls=None, log=None):
        self.ray, self.hide, self.log = ray, set(hide), log
        self.calls = Counter() if calls is None else calls

    def __getattr__(self, name):
        if name in self.hide:
            raise AttributeError(name)
        attr = getattr(self.ray, name)
        if not callable(attr):
            return attr

        def counted(*args):
            self.calls[name] += 1
            if self.log is not None:
                self.log.append((name, *args))
            return attr(*args)
        return counted


def tied_rayleigh():
    """Rayleigh oracle whose components 0 and 1 tie at x, plus x and a v."""
    import rcsopt as r
    base = r.generate_instance("rayleigh", 3, 4, seed=70)
    S = base.manifold
    rng = np.random.default_rng(71)
    x = S.random_point(rng)
    xx = np.outer(x.data, x.data)
    mats = base.mats.copy()
    a = np.einsum("i,kij,j->k", x.data, mats, x.data)
    mats[1] += (a[0] - a[1]) * xx
    mats[:2] += 20.0 * xx
    return r.RayleighQuotientMax(3, 4, mats), x, S.random_tangent(x, rng)


# ---------------------------------------------------------------------------
# The trajectory invariants as list walks, one function per invariant: the
# reference the one-pass ``check_trajectory`` must equal bit for bit.
# ---------------------------------------------------------------------------

def fr_direction_check(trajectory):
    """Max relative residual of the Fletcher-Reeves equivalence."""
    from rcsopt import norm, transport_between
    if not trajectory:
        return 0.0
    eta_fr = -1.0 * trajectory[0].gtilde
    worst = 0.0
    for j, row in enumerate(trajectory):
        if j > 0:
            prev = trajectory[j - 1]
            if prev.gtilde_norm == 0.0:
                break
            carried = transport_between(prev.x, row.x, eta_fr)
            eta_fr = (-1.0 * row.gtilde
                      + (row.gtilde_norm ** 2 / prev.gtilde_norm ** 2) * carried)
        mismatch = (row.eta_norm ** 2) * eta_fr - (row.gtilde_norm ** 2) * row.eta
        resid = norm(mismatch) / (row.gtilde_norm ** 2 * row.eta_norm + 1e-300)
        worst = max(worst, resid)
    return worst


def norm_recursion_residual(trajectory):
    """Max relative error of 1/||eta_k||^2 = sum_{j<=k} 1/||gtilde_j||^2."""
    worst = 0.0
    acc = 0.0
    for row in trajectory:
        gn, en = row.gtilde_norm, row.eta_norm
        if gn == 0.0 or en == 0.0:
            break
        acc += 1.0 / gn ** 2
        lhs = 1.0 / en ** 2
        worst = max(worst, abs(lhs - acc) / lhs)
    return worst


def descent_violations(trajectory, rel_tol=1e-12):
    """Number of iterations where f increased beyond rel_tol."""
    bad = 0
    fs = [row.f for row in trajectory]
    for a, b in zip(fs, fs[1:]):
        if b > a + rel_tol * (1.0 + abs(a)):
            bad += 1
    return bad


def orthogonality_violations(trajectory, scale_tol=1e-6):
    """(violations, count) for |<gtilde_{k+1}, T eta_k>| <= tol-scale."""
    bad = total = 0
    rows = list(trajectory)
    for prev, row in zip(rows, rows[1:]):
        if row.ortho is None:
            continue
        total += 1
        if abs(row.ortho) > scale_tol * (row.gtilde_norm * prev.eta_norm + 1.0):
            bad += 1
    return bad, total


# ---------------------------------------------------------------------------
# The line-search results of a solve, taken as it runs: the solver keeps none.
# ---------------------------------------------------------------------------

@contextmanager
def line_searches():
    """Yield a list that collects every ``LineSearchResult`` the solvers
    produce inside the block, in call order.

    ``rcsopt.solver.line_search`` is wrapped for the block, as the
    benchmark's span hook wraps it, so the results are the solve's own, not
    a replay.  In a conjugate subgradient solve, result i is the search run
    from trajectory row i.
    """
    from rcsopt import solver
    core = solver.line_search
    results = []

    def spy(*args, **kwargs):
        res = core(*args, **kwargs)
        results.append(res)
        return res

    solver.line_search = spy
    try:
        yield results
    finally:
        solver.line_search = core


def stall_search(monkeypatch, search: int, cap: int = 12) -> None:
    """Make the ``search``-th interval reduction from now on (counting from
    1) stall: from that call on, the iteration cap is ``cap``, below the 21
    trials a search of the width stop walks."""
    from rcsopt import linesearch
    core, calls = linesearch.irp, []

    def irp(*args, **kwargs):
        calls.append(None)
        if len(calls) == search:
            monkeypatch.setattr(linesearch, "_IRP_MAX_ITERS", cap)
        return core(*args, **kwargs)

    monkeypatch.setattr(linesearch, "irp", irp)


def sunk_solve(solve, *args, **kw):
    """(result, rows, entries) of a solve whose ``record`` is a sink that
    appends every row it is handed to ``rows`` and every IRP entry to
    ``entries``; ``entries`` is None when no entry list was handed (the
    subgradient baseline makes no line search)."""
    rows, lists = [], []

    def sink(row, entries):
        rows.append(row)
        if entries is not None:
            lists.append(entries)
    res = solve(*args, **kw, record=sink)
    return res, rows, [e for es in lists for e in es] if lists else None
