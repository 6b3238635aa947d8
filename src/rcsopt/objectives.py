"""Benchmark objectives: values, active subgradients, restrictions to rays.

Three families:

* max of Rayleigh quotients on the sphere,   f(x) = max_i 1/2 x^T A_i x
* geometric median on the sphere,            f(x) = sum_i w_i arccos(x_i^T x)
* center of mass of SPD matrices,            f(X) = 1/2 sum_i ||logm(X^-1/2 A_i X^-1/2)||_F^2

Each oracle has a ``manifold`` and offers ``value``, ``value_and_subgrad``
and ``restrict``; the solvers check for the last two once at entry.

``value_and_subgrad(x, xi)`` returns ``value(x)`` bit for bit and the
directionally active Clarke subgradient g, with <g, xi> = f'(x; xi), which
is what the direction update consumes.  It makes one pass over the data
(the Rayleigh components, the median cosines, the whitened Karcher stack);
the solvers ask it at x0 and the subgradient baseline at every iterate, one
evaluation (``nf``) each.

``active_subgrad(x, xi)`` (that g) and ``dir_deriv(x, xi)`` (<g, xi>) are
derived from it once, for all three families.  No solver calls them; they
stay as the one-point queries of the demos and tests, and because the
benchmark's timing proxy reports the calls to them by name.

Oracles are immutable.  Their constructors raise ``ValueError`` on n < 1 or
m < 1 (so no stack is empty), complex data, a wrong shape, non-finite data,
asymmetric matrices (|A_jk - A_kj| > 1e-12), median points off the unit
sphere or weights that are not positive with sum 1, and SPD matrices that
are not positive definite.  They keep float data without a copy and check
it block by block (see :data:`_BLOCK_ENTRIES`), so validation takes O(block)
extra memory, not O(data); ``generate_instance`` symmetrizes and normalizes
the same way, in place.

``restrict(x, v)`` returns the objective on the retraction ray
y(t) = R_x(t v) as a small object with

* ``value(t)``, which the line search counts as one evaluation;
* ``slopes(t)``, the one-sided derivatives (f'(y; d), -f'(y; -d)) along the
  direction d = v transported to y(t);
* ``subgrad(t, forward)``, the ambient data of the directionally active
  subgradient at y(t) for +d (``forward``) or -d, as ``active_subgrad``
  would pick it; it is not an evaluation;
* ``reversed()``, the same ray for -v, with no new products;
* optionally ``values(ts)``, ``[value(t) for t in ts]`` bit for bit in one
  call.  The line search asks for it with the trials that follow a failed
  first trial if all of them fail, and charges only the values it reads.
  Only :class:`RayleighRay` offers it.

The ray answers a whole line search, so a line search makes no oracle
call.  Each ray keeps a two-entry per-step memo (t = 0 and the latest other
t, see :func:`_memoize`), so ``slopes`` and ``subgrad`` at one step size
share their work, and on the median ray ``value`` shares the cosines too.
``subgrad`` never returns non-finite data; it raises
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
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .manifolds import (SPD, ManifoldPoint, Sphere, TangentVector, _adopt,
                        _random_spd, _sqrt_pair, _spd_log_eigvals, _sym,
                        inner)

# Active-set tolerance for the Rayleigh max (exact float ties never happen).
_ACTIVE_TOL = 1e-10
# Median data term counts as singular (x at or antipodal to x_i) inside this.
_SINGULAR_TOL = 1e-12
# Gradient denominator floor near the median singularities.
_DENOM_FLOOR = 1e-6
# Index of every median term, used when no term is singular.
_ALL = slice(None)
# Largest |A_jk - A_kj| a matrix of the data may have.
_SYM_TOL = 1e-12
# Data stacks are symmetrized, normalized and checked in blocks of at most
# this many entries, so the temporaries stay O(block), not O(data).
_BLOCK_ENTRIES = 1 << 16


class AmbiguousDirectionError(ValueError):
    """Zero-direction subgradient query at a nonsmooth point."""


class NonFiniteRayError(ValueError):
    """A restricted ray produced non-finite data (e.g. overflow at a huge t)."""


def _require_sizes(n: int, m: int) -> None:
    if n < 1 or m < 1:
        raise ValueError(f"n and m must be >= 1, got n={n}, m={m}")


def _as_real(data) -> np.ndarray:
    """data as a float array, with no copy when it is one already."""
    a = np.asarray(data)
    if np.iscomplexobj(a):
        raise ValueError("oracle data must be real, not complex")
    return np.asarray(a, dtype=float)


def _require_finite(*arrays: np.ndarray) -> None:
    if not all(np.all(np.isfinite(a)) for a in arrays):
        raise ValueError("oracle data must be finite")


def _blocks(a: np.ndarray):
    """Views of a in consecutive slices of its first axis, each of at most
    _BLOCK_ENTRIES entries (at least one item)."""
    step = max(1, _BLOCK_ENTRIES // math.prod(a.shape[1:]))
    for i in range(0, len(a), step):
        yield a[i:i + step]


def _require_symmetric(a: np.ndarray) -> None:
    """Raise unless max |a_ijk - a_ikj| <= _SYM_TOL over the (m, k, k) stack.

    The maximum is taken block by block in one reused block-sized buffer;
    the first block is the largest.
    """
    buf = None
    for blk in _blocks(a):
        if buf is None:
            buf = np.empty(blk.shape)
        d = buf[:len(blk)]
        np.subtract(blk, blk.transpose(0, 2, 1), out=d)
        np.abs(d, out=d)
        if d.max() > _SYM_TOL:
            raise ValueError("matrices must be symmetric")


def _finite(g: np.ndarray) -> np.ndarray:
    if not np.isfinite(g).all():
        raise NonFiniteRayError("ray subgradient is not finite")
    return g


def _memoize(cache: dict, t: float, compute):
    """compute(t) through ``cache``, which keeps t = 0 and the latest other t.

    A line search asks for slopes and subgradients at the bracket endpoints,
    one of which is often 0, so two entries are enough and a ray stays small.
    """
    hit = cache.get(t)
    if hit is None:
        hit = compute(t)
        if t != 0.0:
            zero = cache.get(0.0)
            cache.clear()
            if zero is not None:
                cache[0.0] = zero
        cache[t] = hit
    return hit


def _active_index(vals: np.ndarray, fmax) -> np.ndarray:
    """Indices of the Rayleigh components within the active-set tolerance of
    their max, ``fmax = vals.max()``."""
    return (vals >= fmax - _ACTIVE_TOL * (1.0 + abs(fmax))).nonzero()[0]


def _median_terms(u: np.ndarray, weights: np.ndarray):
    """Regular-term index, w_i / sin(angle_i) on it, signed singular weight.

    u holds the cosines x_i^T x; a term is singular with x at its data point
    (u ~ 1) or antipodal to it (u ~ -1).  Without singular terms the index
    is a full slice, so indexing with it makes views, not copies.
    """
    # fl(-1 + tol) = -fl(1 - tol), so this is "some term is singular".
    if (np.abs(u) > 1.0 - _SINGULAR_TOL).any():
        sing_hi = u > 1.0 - _SINGULAR_TOL
        sing_lo = u < -1.0 + _SINGULAR_TOL
        reg = ~(sing_hi | sing_lo)
        sing_weight = float(np.sum(weights[sing_hi])
                            - np.sum(weights[sing_lo]))
    else:
        reg, sing_weight = _ALL, 0.0
    den = np.maximum(np.sqrt(1.0 - u[reg] ** 2), _DENOM_FLOOR)
    return reg, weights[reg] / den, sing_weight, reg is not _ALL


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
    # Per-step memo (see _memoize); a reversed ray starts with an empty one.
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False)

    def _norm2(self, t: float) -> float:
        # Exact ||x + t v||^2; the base point itself is used at t = 0.
        return 1.0 if t == 0.0 else self.xx + t * (2.0 * self.xv + t * self.vv)

    def _flipped(self, **fields) -> "_QfRay":
        return replace(self, v=-self.v, xv=-self.xv, **fields)


@dataclass(frozen=True)
class RayleighRay(_QfRay):
    """max_i 1/2 y^T A_i y on y(t) from A_i x, A_i v and a = x^T A x,
    b = x^T A v, c = v^T A v; a is kept halved, c also halved."""

    ax: np.ndarray  # (m, n+1)
    av: np.ndarray  # (m, n+1)
    a_half: np.ndarray
    b: np.ndarray
    c: np.ndarray
    c_half: np.ndarray

    def _vals(self, t: float) -> np.ndarray:
        return self._quad(t) / self._norm2(t)

    def _quad(self, t: float) -> np.ndarray:
        # Bitwise 0.5 * (a + t (2 b + t c)): halving and doubling are exact.
        return self.a_half + t * (self.b + t * self.c_half)

    def value(self, t: float) -> float:
        # Rounding is monotone, so the max commutes with the division.
        return float(self._quad(t).max()) / self._norm2(t)

    def values(self, ts: list[float]) -> list[float]:
        """[value(t) for t in ts] in one vectorized pass, bit for bit: the
        same elementwise operations with t broadcast, and 1 at t = 0."""
        t = np.asarray(ts, dtype=float)
        tc = t[:, None]
        quad = self.a_half + tc * (self.b + tc * self.c_half)
        norm2 = np.where(t == 0.0, 1.0,
                         self.xx + t * (2.0 * self.xv + t * self.vv))
        return (quad.max(axis=1) / norm2).tolist()

    def _active_slopes(self, t: float):
        """(index, value, slope) of the active components at t: an int index
        and Python floats when one component is active, else arrays over
        the ties."""
        return _memoize(self._memo, t, self._active_slopes_at)

    def _active_slopes_at(self, t: float):
        vals = self._vals(t)
        idx = _active_index(vals, vals.max())
        dot = self.xv + t * self.vv
        # <A_i y - (y^T A_i y) y, d> with d = ||x + t v||^2 y'(t).
        if len(idx) == 1:
            # The same operations in the same order on Python floats, so the
            # same IEEE values as the array path, with far fewer numpy calls.
            i = int(idx[0])
            val = float(vals[i])
            return i, val, float((float(self.b[i]) + t * float(self.c[i]))
                                 - 2.0 * val * dot)
        val = vals[idx]
        return idx, val, (self.b[idx] + t * self.c[idx]) - 2.0 * val * dot

    def slopes(self, t: float) -> tuple[float, float]:
        i, _, s = self._active_slopes(t)
        if type(i) is int:
            return s, s
        return float(np.max(s)), float(np.min(s))

    def subgrad(self, t: float, forward: bool) -> np.ndarray:
        i, val, s = self._active_slopes(t)
        if type(i) is not int:
            if self.vv == 0.0:
                raise AmbiguousDirectionError(
                    "zero direction at a point with several active components")
            # argmax/argmin return the smallest tied index, as active_subgrad.
            j = np.argmax(s) if forward else np.argmin(s)
            i, val = i[j], val[j]
        # A_i y - 2 val_i y with A_i y = (A_i x + t A_i v) / r; r = 1 at t = 0,
        # where this is exactly A_i x - 2 val_i x.
        r = math.sqrt(self._norm2(t))
        y = (self.x + t * self.v) / r
        return _finite((self.ax[i] + t * self.av[i]) / r - 2.0 * val * y)

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
        return _memoize(self._memo, t, self._cosines_at)

    def _cosines_at(self, t: float) -> tuple[np.ndarray, float]:
        # Correctly rounded like np.sqrt, but a Python float: the per-trial
        # scalar arithmetic then skips numpy's scalar types.
        r = math.sqrt(self._norm2(t))
        return (self.px + t * self.pv) / r, r

    def value(self, t: float) -> float:
        u, _ = self._cosines(t)
        # The method skips np.clip's dispatch; the result is the same.
        return float(self.weights @ np.arccos(u.clip(-1.0, 1.0)))

    def slopes(self, t: float) -> tuple[float, float]:
        u, r = self._cosines(t)
        reg, coef, sw, _ = _median_terms(u, self.weights)
        # p_i^T d with d = ||x + t v||^2 y'(t) = r v - (xv + t vv) y.
        pd = r * self.pv[reg] - u[reg] * (self.xv + t * self.vv)
        slope = -float(coef @ pd)
        jump = sw * math.sqrt(self.vv)
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


def _karcher_value(stack: np.ndarray) -> float:
    """1/2 sum_i ||log eig(M_i)||^2 over a stack of SPD matrices M_i."""
    return 0.5 * float(np.sum(_spd_log_eigvals(np.linalg.eigvalsh(stack))
                              ** 2))


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
        return _memoize(self._eig, t, self._eigh_at)

    def _eigh_at(self, t: float):
        ev, vec = np.linalg.eigh(self._scaled(t))
        return _spd_log_eigvals(ev), vec

    def value(self, t: float) -> float:
        # A step far beyond the data's scale overflows E B_i E; the value
        # there is +inf, a failed trial that shrinks the bracket.
        with np.errstate(over="ignore", invalid="ignore"):
            stack = self._scaled(t)
        if not np.isfinite(stack).all():
            return math.inf
        return _karcher_value(stack)

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


class _DerivedQueries:
    """``active_subgrad`` and ``dir_deriv`` for every oracle, derived from its
    ``value_and_subgrad`` (see the module docstring for why they stay)."""

    def active_subgrad(self, x: ManifoldPoint, xi: TangentVector
                       ) -> TangentVector:
        """The directionally active subgradient g: <g, xi> = f'(x; xi)."""
        return self.value_and_subgrad(x, xi)[1]

    def dir_deriv(self, x: ManifoldPoint, xi: TangentVector) -> float:
        """The one-sided directional derivative f'(x; xi) = <g, xi>; like
        ``active_subgrad`` it raises :class:`AmbiguousDirectionError` for
        xi = 0 at a kink."""
        return inner(self.active_subgrad(x, xi), xi)


@dataclass(frozen=True)
class RayleighQuotientMax(_DerivedQueries):
    """max_i 1/2 x^T A_i x over the unit sphere S^n (A_i symmetric)."""

    n: int
    m: int
    mats: np.ndarray  # (m, n+1, n+1), symmetric
    seed: int | None = None
    kind: str = field(default="rayleigh", init=False)

    def __post_init__(self):
        _require_sizes(self.n, self.m)
        a = _as_real(self.mats)
        if a.shape != (self.m, self.n + 1, self.n + 1):
            raise ValueError("matrix stack has wrong shape")
        _require_finite(a)
        _require_symmetric(a)
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
        return float(vals.max())

    def restrict(self, x: ManifoldPoint, v: TangentVector) -> RayleighRay:
        # The (n+1, 2) matrix [x v], laid out as np.stack would make it.
        xv = np.empty((x.data.size, 2))
        xv[:, 0], xv[:, 1] = x.data, v.data
        p = self.mats @ xv  # (m, n+1, 2)
        ax, av = p[..., 0], p[..., 1]
        c = av @ v.data
        return RayleighRay(**_qf_fields(x.data, v.data), ax=ax, av=av,
                           a_half=0.5 * (ax @ x.data), b=ax @ v.data, c=c,
                           c_half=0.5 * c)

    def value_and_subgrad(self, x: ManifoldPoint, xi: TangentVector
                          ) -> tuple[float, TangentVector]:
        prods, vals = self._components(x.data)
        fmax = vals.max()
        idx = _active_index(vals, fmax)
        if len(idx) == 1:
            # The one row of the tied path below, by the same operations.
            grad = prods[idx[0]] - (2.0 * vals[idx[0]]) * x.data
        else:
            # Riemannian gradients of the active components,
            # A_i x - (x^T A_i x) x.
            grads = prods[idx] - (2.0 * vals[idx])[:, None] * x.data
            if float(np.linalg.norm(xi.data)) == 0.0:
                raise AmbiguousDirectionError(
                    "zero direction at a point with several active components")
            # argmax returns the smallest tied index.
            grad = grads[int(np.argmax(grads @ xi.data))]
        return float(fmax), _adopt(TangentVector, x, grad)


@dataclass(frozen=True)
class GeometricMedian(_DerivedQueries):
    """sum_i w_i arccos(x_i^T x) over S^n; nonsmooth at the data points."""

    n: int
    m: int
    points: np.ndarray   # (m, n+1), unit rows
    weights: np.ndarray  # (m,), positive, sums to 1
    seed: int | None = None
    kind: str = field(default="median", init=False)

    def __post_init__(self):
        _require_sizes(self.n, self.m)
        p, w = _as_real(self.points), _as_real(self.weights)
        if p.shape != (self.m, self.n + 1) or w.shape != (self.m,):
            raise ValueError("data has wrong shape")
        _require_finite(p, w)
        if any(np.max(np.abs(np.linalg.norm(blk, axis=1) - 1.0)) > 1e-12
               for blk in _blocks(p)):
            raise ValueError("data points must be unit vectors")
        if np.any(w <= 0.0) or abs(float(np.sum(w)) - 1.0) > 1e-12:
            raise ValueError("weights must be positive and sum to 1")
        object.__setattr__(self, "points", p)
        object.__setattr__(self, "weights", w)

    @property
    def manifold(self) -> Sphere:
        return Sphere(self.n + 1)

    def _cosines(self, x: np.ndarray) -> np.ndarray:
        return np.clip(self.points @ x, -1.0, 1.0)

    def value(self, x: ManifoldPoint) -> float:
        return float(self.weights @ np.arccos(self._cosines(x.data)))

    def restrict(self, x: ManifoldPoint, v: TangentVector) -> MedianRay:
        px, pv = np.stack([x.data, v.data]) @ self.points.T  # (2, m)
        return MedianRay(**_qf_fields(x.data, v.data), points=self.points,
                         px=px, pv=pv, weights=self.weights)

    def value_and_subgrad(self, x: ManifoldPoint, xi: TangentVector
                          ) -> tuple[float, TangentVector]:
        u = self._cosines(x.data)
        f = float(self.weights @ np.arccos(u))
        # The regular-term gradient sum plus, at a data point or its
        # antipode, the signed singular weight along xi.
        reg, coef, sw, has_sing = _median_terms(u, self.weights)
        grad = (-(coef @ (self.points[reg] - u[reg, None] * x.data))
                if coef.size else np.zeros_like(x.data))
        if has_sing:
            nxi = float(np.linalg.norm(xi.data))
            if nxi == 0.0:
                raise AmbiguousDirectionError(
                    "zero direction at a median data point")
            grad = grad + (sw / nxi) * xi.data
        return f, _adopt(TangentVector, x, grad)


@dataclass(frozen=True)
class SpdCenterOfMass(_DerivedQueries):
    """1/2 sum_i dist(X, A_i)^2 over SPD(n); smooth with unique minimizer."""

    n: int
    m: int
    mats: np.ndarray  # (m, n, n), SPD
    seed: int | None = None
    kind: str = field(default="karcher", init=False)

    def __post_init__(self):
        _require_sizes(self.n, self.m)
        a = _as_real(self.mats)
        if a.shape != (self.m, self.n, self.n):
            raise ValueError("matrix stack has wrong shape")
        _require_finite(a)
        _require_symmetric(a)
        if np.any(np.linalg.eigvalsh(a)[:, 0] <= 0.0):
            raise ValueError("matrices must be positive definite")
        object.__setattr__(self, "mats", a)

    @property
    def manifold(self) -> SPD:
        return SPD(self.n)

    def _whitened(self, x: np.ndarray):
        """(X^(1/2), the symmetrized stack X^(-1/2) A_i X^(-1/2))."""
        rt, irt = _sqrt_pair(x)
        m = irt @ self.mats @ irt  # (m, n, n)
        return rt, 0.5 * (m + np.transpose(m, (0, 2, 1)))

    def value(self, x: ManifoldPoint) -> float:
        return _karcher_value(self._whitened(x.data)[1])

    def value_and_subgrad(self, x: ManifoldPoint, xi: TangentVector
                          ) -> tuple[float, TangentVector]:
        # The value by eigvalsh, as ``value`` computes it, so the bits are
        # its; the gradient -sum_i X^(1/2) logm(X^(-1/2) A_i X^(-1/2)) X^(1/2)
        # by eigh.
        rt, m = self._whitened(x.data)
        f = _karcher_value(m)
        ev, vec = np.linalg.eigh(m)
        return f, _adopt(TangentVector, x, _sym(
            -rt @ _logm_sum(_spd_log_eigvals(ev), vec) @ rt))

    def restrict(self, x: ManifoldPoint, v: TangentVector) -> KarcherRay:
        rt, irt = _sqrt_pair(x.data)
        lam, q = np.linalg.eigh(_sym(irt @ v.data @ irt))
        s = irt @ q
        b = s.T @ self.mats @ s
        return KarcherRay(lam=lam, b=0.5 * (b + np.transpose(b, (0, 2, 1))),
                          w0=rt @ q)


Oracle = RayleighQuotientMax | GeometricMedian | SpdCenterOfMass

KINDS = ("rayleigh", "median", "karcher")


def generate_instance(kind: str, n: int, m: int, seed: int) -> Oracle:
    """Random problem instance, bit-reproducible for a given seed."""
    _require_sizes(n, m)
    rng = np.random.default_rng(seed)
    if kind == "rayleigh":
        a = rng.standard_normal((m, n + 1, n + 1))
        # 0.5 (B + B^T) in place.  numpy reads the overlapping transposed
        # operand from a copy of the block, so each entry is
        # fl(0.5 fl(b_jk + b_kj)), as the out-of-place expression gives.
        for blk in _blocks(a):
            blk += blk.transpose(0, 2, 1)
            blk *= 0.5
        return RayleighQuotientMax(n, m, a, seed=seed)
    if kind == "median":
        p = rng.standard_normal((m, n + 1))
        # Row norms do not depend on the other rows, so blocks keep the bits.
        for blk in _blocks(p):
            blk /= np.linalg.norm(blk, axis=1, keepdims=True)
        return GeometricMedian(n, m, p, np.full(m, 1.0 / m), seed=seed)
    if kind == "karcher":
        mats = np.empty((m, n, n))
        for i in range(m):
            mats[i] = _random_spd(rng, n)
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
