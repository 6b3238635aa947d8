"""Geometry for the unit sphere S^n and the SPD(n) manifold.

Points and tangent vectors are immutable value objects; every operation is a
pure function.  The sphere uses the projected (qf) retraction and parallel
transport along the connecting great circle; SPD(n) carries the
affine-invariant metric with the exponential map as retraction and parallel
transport along geodesics.

The public functions check base points; the raw-array ``Manifold._*``
methods do not, and the solver loop calls them after its entry checks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


class BasePointMismatchError(ValueError):
    """Tangent vectors combined across different base points."""


class DegenerateRetractionError(ValueError):
    """Retraction undefined for the given input (e.g. x + eta ~ 0)."""


class DegenerateTransportError(ValueError):
    """Transport along a geodesic that is not unique (antipodal endpoints)."""


# Tolerances used by the point / tangent validity checks.
_POINT_TOL = 1e-12
_TANGENT_TOL = 1e-10
_BASE_MATCH_TOL = 1e-14
_EIG_FLOOR = 1e-14
# Draws random_tangent makes before giving up on a numerically zero sample.
_TANGENT_DRAWS = 8


def _readonly(a: np.ndarray) -> np.ndarray:
    out = np.array(a, dtype=float)
    out.setflags(write=False)
    return out


def _adopt(cls, owner, data: np.ndarray):
    """``cls(owner, data)`` without the copy, for ManifoldPoint and
    TangentVector: ``data`` is made read-only in place.

    Only for a float array that the caller has just computed and that no
    one will write to; the public constructors copy their input.
    """
    data.setflags(write=False)
    obj = object.__new__(cls)
    obj.__dict__.update({cls._owner: owner, "data": data})
    return obj


@dataclass(frozen=True)
class ManifoldPoint:
    manifold: "Manifold"
    data: np.ndarray
    _owner = "manifold"

    def __post_init__(self):
        object.__setattr__(self, "data", _readonly(self.data))


@dataclass(frozen=True)
class TangentVector:
    base: ManifoldPoint
    data: np.ndarray
    _owner = "base"

    def __post_init__(self):
        object.__setattr__(self, "data", _readonly(self.data))

    def _check_same_base(self, other: "TangentVector") -> None:
        if not same_point(self.base, other.base):
            raise BasePointMismatchError(
                "tangent vectors live at different base points")

    def __add__(self, other: "TangentVector") -> "TangentVector":
        self._check_same_base(other)
        return _adopt(TangentVector, self.base, self.data + other.data)

    def __sub__(self, other: "TangentVector") -> "TangentVector":
        self._check_same_base(other)
        return _adopt(TangentVector, self.base, self.data - other.data)

    def __mul__(self, c: float) -> "TangentVector":
        return _adopt(TangentVector, self.base, c * self.data)

    __rmul__ = __mul__

    def __neg__(self) -> "TangentVector":
        return _adopt(TangentVector, self.base, -self.data)


def same_point(a: ManifoldPoint, b: ManifoldPoint) -> bool:
    """Whether a and b are the same point up to bitwise-level tolerance."""
    return a is b or (a.manifold == b.manifold and _same_data(a.data, b.data))


def _same_data(a: np.ndarray, b: np.ndarray) -> bool:
    return bool(abs(a - b).max() <= _BASE_MATCH_TOL)


def _sym(a: np.ndarray) -> np.ndarray:
    return 0.5 * (a + a.T)


def _random_spd(rng: np.random.Generator, n: int) -> np.ndarray:
    """Q D Q^T with random orthogonal Q and eigenvalues D in [0.1, 10]."""
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    q = q * np.sign(np.diag(r))
    return _sym((q * rng.uniform(0.1, 10.0, size=n)) @ q.T)


def _eigh_fun(a: np.ndarray, fun) -> np.ndarray:
    """Apply a scalar function to a symmetric matrix via eigendecomposition."""
    w, v = np.linalg.eigh(_sym(a))
    return _sym((v * fun(w)) @ v.T)


def _spd_log_eigvals(w: np.ndarray) -> np.ndarray:
    # Floor protects logs of nearly singular matrices produced by round-off.
    return np.log(np.maximum(w, _EIG_FLOOR))


def _floored_sqrt(w: np.ndarray) -> np.ndarray:
    return np.sqrt(np.maximum(w, _EIG_FLOOR))


def _sqrt_pair(x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(X^(1/2), X^(-1/2)) of an SPD matrix from one eigendecomposition."""
    w, q = np.linalg.eigh(_sym(x))
    rw = _floored_sqrt(w)
    return (q * rw) @ q.T, (q / rw) @ q.T


class Manifold:
    """Common interface of the two supported manifolds."""

    injectivity_radius: float

    def point(self, data: np.ndarray) -> ManifoldPoint:
        """Validate raw coordinates and wrap them as a point."""
        data = np.asarray(data, dtype=float)
        if not np.all(np.isfinite(data)):
            raise ValueError("point coordinates must be finite")
        self._check_point(data, _POINT_TOL)
        return ManifoldPoint(self, data)

    def tangent(self, x: ManifoldPoint, data: np.ndarray) -> TangentVector:
        """Project raw coordinates onto T_x and wrap them."""
        return _adopt(TangentVector, x,
                      self._project(x.data, np.asarray(data, float)))

    def zero_tangent(self, x: ManifoldPoint) -> TangentVector:
        return _adopt(TangentVector, x, np.zeros_like(x.data))

    def random_point(self, rng: np.random.Generator) -> ManifoldPoint:
        raise NotImplementedError

    def random_tangent(self, x: ManifoldPoint, rng: np.random.Generator,
                       unit: bool = True) -> TangentVector:
        """Random tangent vector at x, unit-norm unless unit=False.

        A unit draw is retried while the projected sample is numerically
        zero, at most ``_TANGENT_DRAWS`` times in all; then ValueError.
        """
        if not unit:
            return self.tangent(x, rng.standard_normal(x.data.shape))
        return _adopt(TangentVector, x, self._random_unit(x.data, rng))

    @staticmethod
    def from_tag(tag: dict) -> "Manifold":
        """The manifold named by a ``tag()`` dict; ValueError when unknown."""
        for cls in Manifold.__subclasses__():
            if cls.kind == tag.get("kind"):
                return cls(tag["dim"])
        raise ValueError(f"unknown manifold tag {tag!r}")

    # Subclasses implement ``kind``, ``tag()``, the membership checks
    # ``_check_point`` (raises ValueError) and ``_is_tangent``, and the
    # raw-array geometry.
    def _check_point(self, data: np.ndarray, tol: float) -> None:
        raise NotImplementedError

    def _project(self, x: np.ndarray, v: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _inner(self, x, u, v) -> float:
        raise NotImplementedError

    def _retract(self, x, v) -> np.ndarray:
        raise NotImplementedError

    def _transport(self, a, b, v) -> np.ndarray:
        raise NotImplementedError

    def _distance(self, a, b) -> float:
        raise NotImplementedError

    def _norm(self, x, v) -> float:
        return math.sqrt(max(self._inner(x, v, v), 0.0))

    def _carry(self, a, b, v) -> np.ndarray:
        """Raw ``transport_between``: v itself when a and b are the same point."""
        return v if a is b or _same_data(a, b) else self._transport(a, b, v)

    def _random_unit(self, x, rng: np.random.Generator) -> np.ndarray:
        """Raw core of a unit ``random_tangent`` draw, with the same draws."""
        for _ in range(_TANGENT_DRAWS):
            v = self._project(x, rng.standard_normal(x.shape))
            n = self._norm(x, v)
            if n >= 1e-14:
                return (1.0 / n) * v
        raise ValueError(f"no nonzero tangent in {_TANGENT_DRAWS} draws")


@dataclass(frozen=True)
class Sphere(Manifold):
    """Unit sphere S^n embedded in R^(n+1), n+1 = ambient_dim >= 2."""

    ambient_dim: int
    injectivity_radius: float = field(default=np.pi, init=False)
    kind = "sphere"

    def __post_init__(self):
        if self.ambient_dim < 2:
            raise ValueError("sphere ambient dimension must be >= 2")

    def tag(self):
        return {"kind": self.kind, "dim": self.ambient_dim}

    def _check_point(self, data, tol):
        if data.shape != (self.ambient_dim,):
            raise ValueError(f"expected shape ({self.ambient_dim},), "
                             f"got {data.shape}")
        if not abs(np.linalg.norm(data) - 1.0) <= tol:
            raise ValueError("point is not unit-norm")

    def _is_tangent(self, x, v, tol):
        return abs(float(np.dot(v, x))) <= tol * (1.0 + float(np.linalg.norm(v)))

    # The raw geometry runs its scalar steps on Python floats: ndarray.dot
    # for np.dot, math.sqrt of w.dot(w) for np.linalg.norm (which computes
    # exactly that), min/max for np.clip, math.cos/sin for np.cos/sin.
    # These give the same bits with less dispatch.  np.arccos stays, as
    # math.acos rounds differently on some inputs.
    def _project(self, x, v):
        return v - v.dot(x) * x

    def _inner(self, x, u, v):
        return float(u.dot(v))

    def _retract(self, x, v):
        w = x + v
        nw = math.sqrt(w.dot(w))
        if nw < 1e-14:
            raise DegenerateRetractionError("x + eta is numerically zero")
        return w / nw

    def _transport(self, a, b, v):
        # Parallel transport along the minimal great circle from a to b:
        # the component of v along the geodesic direction u rotates in the
        # (a, u) plane, the orthogonal complement is untouched.
        c = min(max(float(a.dot(b)), -1.0), 1.0)
        if c <= -1.0 + _BASE_MATCH_TOL:
            raise DegenerateTransportError("antipodal endpoints")
        w = b - c * a
        nw = math.sqrt(w.dot(w))
        if nw < 1e-14:
            return self._project(b, v)
        u = w / nw
        theta = float(np.arccos(c))
        vu = float(v.dot(u))
        out = v - vu * u + vu * (math.cos(theta) * u - math.sin(theta) * a)
        return self._project(b, out)

    def _distance(self, a, b):
        return float(np.arccos(np.clip(np.dot(a, b), -1.0, 1.0)))

    def random_point(self, rng):
        v = rng.standard_normal(self.ambient_dim)
        return ManifoldPoint(self, v / np.linalg.norm(v))


@dataclass(frozen=True)
class SPD(Manifold):
    """Symmetric positive definite n x n matrices, affine-invariant metric."""

    order: int
    injectivity_radius: float = field(default=np.inf, init=False)
    kind = "spd"

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("SPD order must be >= 1")

    def tag(self):
        return {"kind": self.kind, "dim": self.order}

    def _check_point(self, data, tol):
        if data.shape != (self.order, self.order):
            raise ValueError(f"expected shape ({self.order}, {self.order}), "
                             f"got {data.shape}")
        if not np.max(np.abs(data - data.T)) <= tol:
            raise ValueError("matrix is not symmetric")
        if not np.linalg.eigvalsh(_sym(data))[0] > 0.0:
            raise ValueError("matrix is not positive definite")

    def _is_tangent(self, x, v, tol):
        return float(np.max(np.abs(v - v.T))) <= max(tol, _POINT_TOL)

    def _project(self, x, v):
        return _sym(v)

    def _inner(self, x, u, v):
        # tr(X^-1 u X^-1 v)
        xu = np.linalg.solve(x, u)
        xv = np.linalg.solve(x, v)
        return float(np.sum(xu * xv.T))

    def _retract(self, x, v):
        # X^(1/2) expm(X^(-1/2) v X^(-1/2)) X^(1/2)
        rt, irt = _sqrt_pair(x)
        with np.errstate(over="ignore", invalid="ignore"):
            out = _sym(rt @ _eigh_fun(irt @ v @ irt, np.exp) @ rt)
        if not np.isfinite(out).all():
            raise DegenerateRetractionError("exp(X^(-1/2) eta X^(-1/2)) "
                                            "overflows")
        return out

    def _transport(self, a, b, v):
        # E v E^T with E = (B A^-1)^(1/2) = A^(1/2) (A^(-1/2) B A^(-1/2))^(1/2) A^(-1/2)
        rt, irt = _sqrt_pair(a)
        m = _sym(irt @ b @ irt)
        e = rt @ _eigh_fun(m, _floored_sqrt) @ irt
        return _sym(e @ v @ e.T)

    def _distance(self, a, b):
        _, irt = _sqrt_pair(a)
        ev = np.linalg.eigvalsh(_sym(irt @ b @ irt))
        return float(np.linalg.norm(_spd_log_eigvals(ev)))

    def random_point(self, rng):
        return ManifoldPoint(self, _random_spd(rng, self.order))


def _require_base(x: ManifoldPoint, xi: TangentVector, what: str) -> None:
    if not same_point(x, xi.base):
        raise BasePointMismatchError(f"{what}: base point mismatch")


def inner(xi: TangentVector, zeta: TangentVector) -> float:
    """Riemannian inner product of two tangent vectors at the same point."""
    xi._check_same_base(zeta)
    return xi.base.manifold._inner(xi.base.data, xi.data, zeta.data)


def norm(xi: TangentVector) -> float:
    return xi.base.manifold._norm(xi.base.data, xi.data)


def retract(x: ManifoldPoint, eta: TangentVector) -> ManifoldPoint:
    """Move from x along eta; R_x(0) = x."""
    _require_base(x, eta, "retract")
    m = x.manifold
    return _adopt(ManifoldPoint, m, m._retract(x.data, eta.data))


def transport_between(a: ManifoldPoint, b: ManifoldPoint,
                      xi: TangentVector) -> TangentVector:
    """Parallel transport of xi from T_a to T_b along the geodesic a -> b."""
    _require_base(a, xi, "transport")
    if a.manifold != b.manifold:
        raise BasePointMismatchError("transport between different manifolds")
    return _adopt(TangentVector, b, a.manifold._carry(a.data, b.data, xi.data))


def distance(x: ManifoldPoint, y: ManifoldPoint) -> float:
    if x.manifold != y.manifold:
        raise BasePointMismatchError("distance between different manifolds")
    if same_point(x, y):
        return 0.0
    return x.manifold._distance(x.data, y.data)


def check_point(x: ManifoldPoint, tol: float = _POINT_TOL) -> bool:
    """True when x satisfies its manifold's membership invariants."""
    try:
        x.manifold._check_point(x.data, tol)
    except ValueError:
        return False
    return True


def check_tangent(xi: TangentVector, tol: float = _TANGENT_TOL) -> bool:
    """True when xi lies in the tangent space of its base point."""
    return xi.base.manifold._is_tangent(xi.base.data, xi.data, tol)
