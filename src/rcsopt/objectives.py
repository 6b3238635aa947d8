"""Benchmark objectives: value, directional derivative, active subgradients.

Three families:

* max of Rayleigh quotients on the sphere,   f(x) = max_i 1/2 x^T A_i x
* geometric median on the sphere,            f(x) = sum_i w_i arccos(x_i^T x)
* center of mass of SPD matrices,            f(X) = 1/2 sum_i ||logm(X^-1/2 A_i X^-1/2)||_F^2

Each oracle exposes ``value``, ``dir_deriv`` and ``active_subgrad``; the last
returns a Clarke subgradient g with <g, xi> = f'(x; xi), which is what the
direction update consumes.  Oracles are immutable and reject non-finite data;
evaluation counting happens in a caller-owned :class:`EvalStats` sink via
:class:`CountingOracle`.

Every oracle also offers ``restrict(x, v)``: the objective on the retraction
ray y(t) = R_x(t v) as a small object with

* ``value(t)``, which counts as one evaluation (``nf``) under
  :class:`CountingOracle`, like an oracle ``value`` call;
* ``slopes(t)``, the one-sided derivatives (f'(y; d), -f'(y; -d)) along the
  direction d = v transported to y(t);
* ``subgrad(t, forward)``, the ambient data of the directionally active
  subgradient at y(t) for +d (``forward``) or -d, as ``active_subgrad``
  would pick it; it is not an evaluation;
* ``reversed()``, the same ray for -v, with no new products.

The ray answers a whole line search, so a restricted search makes no oracle
call.  ``subgrad`` never returns non-finite data; it raises
:class:`NonFiniteRayError` instead.

On the sphere the ray is y(t) = (x + t v) / ||x + t v||, with t = 0 meaning x
itself.  It reads the data once, in one fused product with [x v] (A_i [x v]
for Rayleigh, P [x v] for the median), and then answers in O(m) per step
size plus O(n) per subgradient.  Its velocity is y'(t) = d / ||x + t v||^2,
so the slopes are ||x + t v||^2 * l'_{+/-}(t) for l(t) = f(y(t)).

On SPD(n) the ray whitens X and diagonalizes X^(-1/2) V X^(-1/2) once, then
answers with an O(m n^2) scaling and one batched ``eigvalsh`` per step size.
The exponential map's velocity is the transported direction, so the slopes
are l'(t) itself (both sides; the objective is smooth).  ``slopes`` and
``subgrad`` at one t share one batched ``eigh``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from .manifolds import (SPD, ManifoldPoint, Sphere, TangentVector, _sqrt_pair,
                        _spd_log_eigvals, _sym, inner)

# Active-set tolerance for the Rayleigh max (exact float ties never happen).
_ACTIVE_TOL = 1e-10
# Median data term counts as singular (x at or antipodal to x_i) inside this.
_SINGULAR_TOL = 1e-12
# Gradient denominator floor near the median singularities.
_DENOM_FLOOR = 1e-6


class AmbiguousDirectionError(ValueError):
    """Zero-direction subgradient query at a nonsmooth point."""


class NonFiniteRayError(ValueError):
    """A restricted ray produced non-finite data (e.g. overflow at a huge t)."""


def _require_finite(*arrays: np.ndarray) -> None:
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("oracle data must be finite")


def _finite(g: np.ndarray) -> np.ndarray:
    if not np.all(np.isfinite(g)):
        raise NonFiniteRayError("ray subgradient is not finite")
    return g


def _active_mask(vals: np.ndarray) -> np.ndarray:
    """Rayleigh components within the active-set tolerance of the max."""
    fmax = np.max(vals)
    return vals >= fmax - _ACTIVE_TOL * (1.0 + abs(fmax))


def _median_terms(u: np.ndarray, weights: np.ndarray):
    """Regular-term mask, w_i / sin(angle_i) on it, signed singular weight.

    u holds the cosines x_i^T x; a term is singular with x at its data point
    (u ~ 1) or antipodal to it (u ~ -1).
    """
    sing_hi = u > 1.0 - _SINGULAR_TOL
    sing_lo = u < -1.0 + _SINGULAR_TOL
    reg = ~(sing_hi | sing_lo)
    den = np.maximum(np.sqrt(1.0 - u[reg] ** 2), _DENOM_FLOOR)
    sing_weight = float(np.sum(weights[sing_hi]) - np.sum(weights[sing_lo]))
    return reg, weights[reg] / den, sing_weight, not np.all(reg)


@dataclass
class EvalStats:
    """Mutable per-run statistics sink owned by the calling solver."""
    nf: int = 0


class CountingOracle:
    """Wraps an oracle so that every value() call bumps stats.nf once.

    Offers ``restrict`` only when the wrapped oracle does; its rays charge one
    evaluation per ``value`` call.
    """

    def __init__(self, oracle, stats: EvalStats):
        self.oracle = oracle
        self.stats = stats
        if hasattr(oracle, "restrict"):
            self.restrict = self._restrict

    @property
    def manifold(self):
        return self.oracle.manifold

    def value(self, x: ManifoldPoint) -> float:
        self.stats.nf += 1
        return self.oracle.value(x)

    def dir_deriv(self, x: ManifoldPoint, xi: TangentVector) -> float:
        return self.oracle.dir_deriv(x, xi)

    def active_subgrad(self, x: ManifoldPoint, xi: TangentVector) -> TangentVector:
        return self.oracle.active_subgrad(x, xi)

    def _restrict(self, x: ManifoldPoint, v: TangentVector) -> "CountingRay":
        return CountingRay(self.oracle.restrict(x, v), self.stats)


class CountingRay:
    """Wraps a restricted ray so that every value() call bumps stats.nf once."""

    def __init__(self, ray, stats: EvalStats):
        self.ray = ray
        self.stats = stats

    def value(self, t: float) -> float:
        self.stats.nf += 1
        return self.ray.value(t)

    def slopes(self, t: float) -> tuple[float, float]:
        return self.ray.slopes(t)

    def subgrad(self, t: float, forward: bool) -> np.ndarray:
        return self.ray.subgrad(t, forward)

    def reversed(self) -> "CountingRay":
        return CountingRay(self.ray.reversed(), self.stats)


def _qf_fields(x: np.ndarray, v: np.ndarray) -> dict:
    return dict(x=x, v=v, xx=float(x @ x), xv=float(x @ v), vv=float(v @ v))


@dataclass(frozen=True)
class _QfRay:
    """The ray x + t v and its scalars, shared by the closed-form restrictions."""

    x: np.ndarray
    v: np.ndarray
    xx: float
    xv: float
    vv: float

    def _norm2(self, t: float) -> float:
        # Exact ||x + t v||^2; the base point itself is used at t = 0.
        return 1.0 if t == 0.0 else self.xx + t * (2.0 * self.xv + t * self.vv)

    def _flipped(self, **fields) -> "_QfRay":
        return replace(self, v=-self.v, xv=-self.xv, **fields)


@dataclass(frozen=True)
class RayleighRay(_QfRay):
    """max_i 1/2 y^T A_i y on y(t) from A_i x, A_i v and a = x^T A x,
    b = x^T A v, c = v^T A v."""

    ax: np.ndarray  # (m, n+1)
    av: np.ndarray  # (m, n+1)
    a: np.ndarray
    b: np.ndarray
    c: np.ndarray

    def _vals(self, t: float) -> np.ndarray:
        return 0.5 * (self.a + t * (2.0 * self.b + t * self.c)) / self._norm2(t)

    def value(self, t: float) -> float:
        return float(np.max(self._vals(t)))

    def _active_slopes(self, t: float):
        vals = self._vals(t)
        idx = np.flatnonzero(_active_mask(vals))
        # <A_i y - (y^T A_i y) y, d> with d = ||x + t v||^2 y'(t).
        s = (self.b[idx] + t * self.c[idx]) \
            - 2.0 * vals[idx] * (self.xv + t * self.vv)
        return idx, vals, s

    def slopes(self, t: float) -> tuple[float, float]:
        _, _, s = self._active_slopes(t)
        return float(np.max(s)), float(np.min(s))

    def subgrad(self, t: float, forward: bool) -> np.ndarray:
        idx, vals, s = self._active_slopes(t)
        if len(idx) > 1 and self.vv == 0.0:
            raise AmbiguousDirectionError(
                "zero direction at a point with several active components")
        # argmax/argmin return the smallest tied index, as active_subgrad.
        i = idx[np.argmax(s) if forward else np.argmin(s)]
        # A_i y - 2 val_i y with A_i y = (A_i x + t A_i v) / r; r = 1 at t = 0,
        # where this is exactly A_i x - 2 val_i x.
        r = np.sqrt(self._norm2(t))
        y = (self.x + t * self.v) / r
        return _finite((self.ax[i] + t * self.av[i]) / r - 2.0 * vals[i] * y)

    def reversed(self) -> "RayleighRay":
        return self._flipped(av=-self.av, b=-self.b)


@dataclass(frozen=True)
class MedianRay(_QfRay):
    """sum_i w_i arccos(p_i^T y) on y(t) from p_i^T x and p_i^T v."""

    points: np.ndarray  # (m, n+1), the oracle's data
    px: np.ndarray
    pv: np.ndarray
    weights: np.ndarray

    def _cosines(self, t: float) -> tuple[np.ndarray, float]:
        r = np.sqrt(self._norm2(t))
        return (self.px + t * self.pv) / r, r

    def value(self, t: float) -> float:
        u, _ = self._cosines(t)
        return float(self.weights @ np.arccos(np.clip(u, -1.0, 1.0)))

    def slopes(self, t: float) -> tuple[float, float]:
        u, r = self._cosines(t)
        reg, coef, sw, _ = _median_terms(u, self.weights)
        # p_i^T d with d = ||x + t v||^2 y'(t) = r v - (xv + t vv) y.
        pd = r * self.pv[reg] - u[reg] * (self.xv + t * self.vv)
        slope = -float(coef @ pd)
        jump = sw * np.sqrt(self.vv)
        return slope + jump, slope - jump

    def subgrad(self, t: float, forward: bool) -> np.ndarray:
        u, r = self._cosines(t)
        reg, coef, sw, has_sing = _median_terms(u, self.weights)
        y = (self.x + t * self.v) / r
        # -sum_reg coef_i (p_i - u_i y), with zero weights on singular terms.
        w = np.zeros_like(u)
        w[reg] = coef
        grad = (w @ u) * y - w @ self.points
        if has_sing:
            d = r * self.v - (self.xv + t * self.vv) * y
            nd = float(np.linalg.norm(d))
            if nd == 0.0:
                raise AmbiguousDirectionError(
                    "zero direction at a median data point")
            grad = grad + (sw / nd if forward else -sw / nd) * d
        return _finite(grad)

    def reversed(self) -> "MedianRay":
        return self._flipped(pv=-self.pv)


def _logm_sum(logs: np.ndarray, vec: np.ndarray) -> np.ndarray:
    """sum_i U_i diag(log mu_i) U_i^T from a batched eigendecomposition."""
    return np.einsum("kij,kj,klj->il", vec, logs, vec)


@dataclass(frozen=True)
class KarcherRay:
    """1/2 sum_i ||log eig(E B_i E)||^2 on X(t) = R_X(t V), E = exp(-t Lam/2).

    With X^(-1/2) V X^(-1/2) = Q Lam Q^T and S = X^(-1/2) Q, B_i = S^T A_i S
    and X(t) = W W^T with W = X^(1/2) Q E^(-1), so W^(-1) A_i W^(-T) = E B_i E.

    The batched ``eigh`` of E B_i E is kept for t = 0 and for the latest
    other t, so ``slopes`` and ``subgrad`` at one step size share it.
    """

    lam: np.ndarray  # (n,)
    b: np.ndarray    # (m, n, n), symmetric
    w0: np.ndarray   # (n, n), X^(1/2) Q
    _eig: dict = field(default_factory=dict, init=False, repr=False,
                       compare=False)

    def _scaled(self, t: float) -> np.ndarray:
        e = np.exp(-0.5 * t * self.lam)
        return self.b * np.outer(e, e)

    def _eigh(self, t: float):
        """(log eigenvalues, eigenvectors) of E B_i E."""
        pair = self._eig.get(t)
        if pair is None:
            ev, vec = np.linalg.eigh(self._scaled(t))
            pair = (_spd_log_eigvals(ev), vec)
            if t != 0.0:
                for k in [k for k in self._eig if k != 0.0]:
                    del self._eig[k]
            self._eig[t] = pair
        return pair

    def value(self, t: float) -> float:
        ev = np.linalg.eigvalsh(self._scaled(t))
        return 0.5 * float(np.sum(_spd_log_eigvals(ev) ** 2))

    def slopes(self, t: float) -> tuple[float, float]:
        # mu'/mu = -u^T Lam u for each eigenpair (mu, u) of E B_i E; the
        # transported direction is the geodesic velocity, so no speed factor.
        logs, vec = self._eigh(t)
        quad = np.einsum("kij,i,kij->kj", vec, self.lam, vec)
        slope = -float(np.sum(logs * quad))
        return slope, slope

    def subgrad(self, t: float, forward: bool) -> np.ndarray:
        # grad f(X(t)) = -W (sum_i logm(E B_i E)) W^T; smooth, so both
        # directions give the same gradient.
        w = self.w0 * np.exp(0.5 * t * self.lam)
        return _finite(_sym(-w @ _logm_sum(*self._eigh(t)) @ w.T))

    def reversed(self) -> "KarcherRay":
        return replace(self, lam=-self.lam)  # with an empty eigh cache


@dataclass(frozen=True)
class RayleighQuotientMax:
    """max_i 1/2 x^T A_i x over the unit sphere S^n (A_i symmetric)."""

    n: int
    m: int
    mats: np.ndarray  # (m, n+1, n+1), symmetric
    seed: int | None = None
    kind: str = field(default="rayleigh", init=False)

    def __post_init__(self):
        a = np.asarray(self.mats, dtype=float)
        if a.shape != (self.m, self.n + 1, self.n + 1):
            raise ValueError("matrix stack has wrong shape")
        _require_finite(a)
        if np.max(np.abs(a - np.transpose(a, (0, 2, 1)))) > 1e-12:
            raise ValueError("matrices must be symmetric")
        object.__setattr__(self, "mats", a)

    @property
    def manifold(self) -> Sphere:
        return Sphere(self.n + 1)

    def _components(self, x: np.ndarray):
        prods = self.mats @ x                    # (m, n+1)
        vals = 0.5 * prods @ x                   # (m,)
        return prods, vals

    def value(self, x: ManifoldPoint) -> float:
        _, vals = self._components(x.data)
        return float(np.max(vals))

    def _active(self, x: np.ndarray):
        prods, vals = self._components(x)
        idx = np.flatnonzero(_active_mask(vals))
        # Riemannian gradients of the active components: A_i x - (x^T A_i x) x.
        grads = prods[idx] - (2.0 * vals[idx])[:, None] * x
        return idx, grads

    def restrict(self, x: ManifoldPoint, v: TangentVector) -> RayleighRay:
        p = self.mats @ np.stack([x.data, v.data], 1)  # (m, n+1, 2)
        ax, av = p[..., 0], p[..., 1]
        return RayleighRay(**_qf_fields(x.data, v.data), ax=ax, av=av,
                           a=ax @ x.data, b=ax @ v.data, c=av @ v.data)

    def dir_deriv(self, x: ManifoldPoint, xi: TangentVector) -> float:
        _, grads = self._active(x.data)
        return float(np.max(grads @ xi.data))

    def active_subgrad(self, x: ManifoldPoint, xi: TangentVector) -> TangentVector:
        idx, grads = self._active(x.data)
        if len(idx) > 1 and float(np.linalg.norm(xi.data)) == 0.0:
            raise AmbiguousDirectionError(
                "zero direction at a point with several active components")
        slopes = grads @ xi.data
        best = int(np.argmax(slopes))  # argmax returns the smallest tied index
        return TangentVector(x, grads[best])


@dataclass(frozen=True)
class GeometricMedian:
    """sum_i w_i arccos(x_i^T x) over S^n; nonsmooth at the data points."""

    n: int
    m: int
    points: np.ndarray   # (m, n+1), unit rows
    weights: np.ndarray  # (m,), positive, sums to 1
    seed: int | None = None
    kind: str = field(default="median", init=False)

    def __post_init__(self):
        p = np.asarray(self.points, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if p.shape != (self.m, self.n + 1) or w.shape != (self.m,):
            raise ValueError("data has wrong shape")
        _require_finite(p, w)
        if np.max(np.abs(np.linalg.norm(p, axis=1) - 1.0)) > 1e-12:
            raise ValueError("data points must be unit vectors")
        if np.any(w <= 0.0) or abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        object.__setattr__(self, "points", p)
        object.__setattr__(self, "weights", w)

    @property
    def manifold(self) -> Sphere:
        return Sphere(self.n + 1)

    def value(self, x: ManifoldPoint) -> float:
        u = np.clip(self.points @ x.data, -1.0, 1.0)
        return float(self.weights @ np.arccos(u))

    def _split(self, x: np.ndarray):
        """Regular-term gradient sum plus signed weights of singular terms."""
        u = np.clip(self.points @ x, -1.0, 1.0)
        reg, coef, sing_weight, has_sing = _median_terms(u, self.weights)
        grad = np.zeros_like(x)
        if np.any(reg):
            tang = self.points[reg] - u[reg, None] * x
            grad = -(coef @ tang)
        return grad, sing_weight, has_sing

    def restrict(self, x: ManifoldPoint, v: TangentVector) -> MedianRay:
        px, pv = np.stack([x.data, v.data]) @ self.points.T  # (2, m)
        return MedianRay(**_qf_fields(x.data, v.data), points=self.points,
                         px=px, pv=pv, weights=self.weights)

    def dir_deriv(self, x: ManifoldPoint, xi: TangentVector) -> float:
        grad, sw, _ = self._split(x.data)
        return float(grad @ xi.data + sw * np.linalg.norm(xi.data))

    def active_subgrad(self, x: ManifoldPoint, xi: TangentVector) -> TangentVector:
        grad, sw, has_sing = self._split(x.data)
        nxi = float(np.linalg.norm(xi.data))
        if has_sing:
            if nxi == 0.0:
                raise AmbiguousDirectionError(
                    "zero direction at a median data point")
            grad = grad + (sw / nxi) * xi.data
        return TangentVector(x, grad)


@dataclass(frozen=True)
class SpdCenterOfMass:
    """1/2 sum_i dist(X, A_i)^2 over SPD(n); smooth with unique minimizer."""

    n: int
    m: int
    mats: np.ndarray  # (m, n, n), SPD
    seed: int | None = None
    kind: str = field(default="karcher", init=False)

    def __post_init__(self):
        a = np.asarray(self.mats, dtype=float)
        if a.shape != (self.m, self.n, self.n):
            raise ValueError("matrix stack has wrong shape")
        _require_finite(a)
        if np.max(np.abs(a - np.transpose(a, (0, 2, 1)))) > 1e-12:
            raise ValueError("matrices must be symmetric")
        if np.any(np.linalg.eigvalsh(a)[:, 0] <= 0.0):
            raise ValueError("matrices must be positive definite")
        object.__setattr__(self, "mats", a)

    @property
    def manifold(self) -> SPD:
        return SPD(self.n)

    def _whitened(self, x: np.ndarray):
        rt, irt = _sqrt_pair(x)
        return rt, irt @ self.mats @ irt  # (m, n, n)

    def value(self, x: ManifoldPoint) -> float:
        _, m = self._whitened(x.data)
        ev = np.linalg.eigvalsh(0.5 * (m + np.transpose(m, (0, 2, 1))))
        return 0.5 * float(np.sum(_spd_log_eigvals(ev) ** 2))

    def _gradient(self, x: np.ndarray) -> np.ndarray:
        # grad f(X) = -sum_i X^(1/2) logm(X^(-1/2) A_i X^(-1/2)) X^(1/2)
        rt, m = self._whitened(x)
        ev, vec = np.linalg.eigh(0.5 * (m + np.transpose(m, (0, 2, 1))))
        return _sym(-rt @ _logm_sum(_spd_log_eigvals(ev), vec) @ rt)

    def restrict(self, x: ManifoldPoint, v: TangentVector) -> KarcherRay:
        rt, irt = _sqrt_pair(x.data)
        lam, q = np.linalg.eigh(_sym(irt @ v.data @ irt))
        s = irt @ q
        b = s.T @ self.mats @ s
        return KarcherRay(lam=lam, b=0.5 * (b + np.transpose(b, (0, 2, 1))),
                          w0=rt @ q)

    def dir_deriv(self, x: ManifoldPoint, xi: TangentVector) -> float:
        g = TangentVector(x, self._gradient(x.data))
        return inner(g, xi)

    def active_subgrad(self, x: ManifoldPoint, xi: TangentVector) -> TangentVector:
        return TangentVector(x, self._gradient(x.data))


Oracle = RayleighQuotientMax | GeometricMedian | SpdCenterOfMass

KINDS = ("rayleigh", "median", "karcher")


def generate_instance(kind: str, n: int, m: int, seed: int) -> Oracle:
    """Random problem instance, bit-reproducible for a given seed."""
    if n < 1 or m < 1:
        raise ValueError("n and m must be >= 1")
    rng = np.random.default_rng(seed)
    if kind == "rayleigh":
        b = rng.standard_normal((m, n + 1, n + 1))
        return RayleighQuotientMax(n, m, 0.5 * (b + np.transpose(b, (0, 2, 1))),
                                   seed=seed)
    if kind == "median":
        p = rng.standard_normal((m, n + 1))
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        return GeometricMedian(n, m, p, np.full(m, 1.0 / m), seed=seed)
    if kind == "karcher":
        mats = np.empty((m, n, n))
        for i in range(m):
            q, r = np.linalg.qr(rng.standard_normal((n, n)))
            q = q * np.sign(np.diag(r))
            d = rng.uniform(0.1, 10.0, size=n)
            mats[i] = _sym((q * d) @ q.T)
        return SpdCenterOfMass(n, m, mats, seed=seed)
    raise ValueError(f"unknown problem kind {kind!r}")


def instance_to_json(oracle: Oracle, include_data: bool = False) -> str:
    """Serialize an instance; by default only (kind, n, m, seed) is stored."""
    obj = {"kind": oracle.kind, "n": oracle.n, "m": oracle.m,
           "seed": oracle.seed}
    if include_data:
        if oracle.kind == "median":
            obj["data"] = {"points": oracle.points.tolist(),
                           "weights": oracle.weights.tolist()}
        else:
            obj["data"] = {"matrices": oracle.mats.tolist()}
    return json.dumps(obj)


def instance_from_json(text: str) -> Oracle:
    obj = json.loads(text)
    kind, n, m = obj["kind"], int(obj["n"]), int(obj["m"])
    data = obj.get("data")
    if data is None:
        if obj.get("seed") is None:
            raise ValueError("instance JSON needs either a seed or inline data")
        return generate_instance(kind, n, m, int(obj["seed"]))
    seed = obj.get("seed")
    if kind == "rayleigh":
        return RayleighQuotientMax(n, m, np.array(data["matrices"]), seed=seed)
    if kind == "median":
        return GeometricMedian(n, m, np.array(data["points"]),
                               np.array(data["weights"]), seed=seed)
    if kind == "karcher":
        return SpdCenterOfMass(n, m, np.array(data["matrices"]), seed=seed)
    raise ValueError(f"unknown problem kind {kind!r}")
