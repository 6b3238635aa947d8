"""Bracketing line search with interval reduction for semismooth objectives.

The search works on the univariate restriction l(t) = f(R_x(t v)) of an
oracle to a retraction ray.  When the oracle offers ``restrict`` (all three
built-in oracles do), the ray it returns answers the whole search: values,
one-sided slopes along the transported direction, and the directionally
active subgradients at the final bracket endpoints, with no oracle call.
Otherwise the generic :class:`RayObjective` retracts to each trial point and
asks the oracle, carrying the ray direction there by parallel transport.

The interval reduction loop keeps a bracket [tau_lo, tau_hi] around a
one-dimensional local minimizer and stops either at a point satisfying
l'_-(t) <= 0 <= l'_+(t) or when the bracket is narrower than
``interval_tol`` (returning tau_lo, which never increased the objective).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .manifolds import (ManifoldPoint, TangentVector, norm, retract,
                        transport_between)

_IRP_MAX_ITERS = 10_000


class LineSearchStallError(RuntimeError):
    """Interval reduction exceeded its iteration cap."""

    def __init__(self, tau_lo: float, tau_hi: float):
        super().__init__(f"interval reduction stalled with bracket "
                         f"[{tau_lo}, {tau_hi}]")
        self.tau_lo = tau_lo
        self.tau_hi = tau_hi


@dataclass(frozen=True)
class LineSearchConfig:
    """Bracket initialization and reduction parameters.

    Defaults follow the benchmark setup: start bracket [0, 100] with first
    trial 1, interior clamp q = 0.33, unbounded growth factor rho = 2, and
    bracket-width stop 1e-6.
    """

    tau_lo_init: float = 0.0
    tau_init: float = 1.0
    tau_hi_init: float = 100.0
    q: float = 0.33
    rho: float = 2.0
    interval_tol: float = 1e-6

    def __post_init__(self):
        if not 0.0 <= self.tau_lo_init < self.tau_init < self.tau_hi_init:
            raise ValueError("need 0 <= tau_lo_init < tau_init < tau_hi_init")
        if not 0.0 < self.q < 0.5:
            raise ValueError("need 0 < q < 1/2")
        if self.rho <= 1.0:
            raise ValueError("need rho > 1")
        if self.interval_tol <= 0.0:
            raise ValueError("need interval_tol > 0")


class RayObjective:
    """Objective restricted to a retraction ray t -> f(R_x(t v)).

    Caches evaluation points, values, transported directions and one-sided
    derivatives per step size so bracket endpoints are never recomputed.
    """

    def __init__(self, oracle, x: ManifoldPoint, v: TangentVector,
                 f0: float | None = None):
        self.oracle = oracle
        self.x = x
        self.v = v
        self.dir_norm = norm(v)
        self._points: dict[float, ManifoldPoint] = {0.0: x}
        self._values: dict[float, float] = {}
        self._dirs: dict[float, TangentVector] = {0.0: v}
        self._derivs: dict[float, tuple[float, float]] = {}
        self.evals = 0
        if f0 is not None:
            self._values[0.0] = f0

    def point_at(self, t: float) -> ManifoldPoint:
        p = self._points.get(t)
        if p is None:
            p = retract(self.x, t * self.v)
            self._points[t] = p
        return p

    def direction_at(self, t: float) -> TangentVector:
        d = self._dirs.get(t)
        if d is None:
            d = transport_between(self.x, self.point_at(t), self.v)
            self._dirs[t] = d
        return d

    def value(self, t: float) -> float:
        val = self._values.get(t)
        if val is None:
            val = self.oracle.value(self.point_at(t))
            self._values[t] = val
            self.evals += 1
        return val

    def _deriv_pair(self, t: float) -> tuple[float, float]:
        pair = self._derivs.get(t)
        if pair is None:
            y, d = self.point_at(t), self.direction_at(t)
            pair = (self.oracle.dir_deriv(y, d),
                    -self.oracle.dir_deriv(y, -d))
            self._derivs[t] = pair
        return pair

    def right_deriv(self, t: float) -> float:
        """l'_+(t), evaluated along the transported ray direction."""
        return self._deriv_pair(t)[0]

    def left_deriv(self, t: float) -> float:
        """l'_-(t) = -f'(y; -d)."""
        return self._deriv_pair(t)[1]

    def subgrad_fwd(self, t: float) -> TangentVector:
        """Directionally active subgradient at R_x(tv) for +direction."""
        return self.oracle.active_subgrad(self.point_at(t),
                                          self.direction_at(t))

    def subgrad_bwd(self, t: float) -> TangentVector:
        """Directionally active subgradient at R_x(tv) for -direction."""
        return self.oracle.active_subgrad(self.point_at(t),
                                          -self.direction_at(t))


class RestrictedRayObjective(RayObjective):
    """RayObjective whose values, slopes and subgradients come from
    ``oracle.restrict``.

    The closed-form ray answers each trial in O(m) after one pass over the
    data per ray, and the endpoint subgradients in O(n) (sphere) or from the
    slopes' eigendecomposition (SPD).  Only the accepted point and the
    subgradients' base points go through the generic retraction.
    """

    def __init__(self, oracle, x: ManifoldPoint, v: TangentVector,
                 f0: float | None = None, ray=None):
        super().__init__(oracle, x, v, f0)
        self.ray = oracle.restrict(x, v) if ray is None else ray

    def value(self, t: float) -> float:
        val = self._values.get(t)
        if val is None:
            val = self.ray.value(t)
            self._values[t] = val
            self.evals += 1
        return val

    def _deriv_pair(self, t: float) -> tuple[float, float]:
        pair = self._derivs.get(t)
        if pair is None:
            pair = self.ray.slopes(t)
            self._derivs[t] = pair
        return pair

    def subgrad_fwd(self, t: float) -> TangentVector:
        return TangentVector(self.point_at(t), self.ray.subgrad(t, True))

    def subgrad_bwd(self, t: float) -> TangentVector:
        return TangentVector(self.point_at(t), self.ray.subgrad(t, False))


def ray_objective(oracle, x: ManifoldPoint, v: TangentVector,
                  f0: float | None = None) -> RayObjective:
    """The restricted ray when the oracle offers ``restrict``, else generic."""
    if hasattr(oracle, "restrict"):
        return RestrictedRayObjective(oracle, x, v, f0)
    return RayObjective(oracle, x, v, f0)


def _mirrored(pf: RayObjective, f0: float) -> RayObjective:
    """t -> f(R_x(-t v)) for the ray of ``pf``, as the same kind of object."""
    if isinstance(pf, RestrictedRayObjective):
        return RestrictedRayObjective(pf.oracle, pf.x, -pf.v, f0,
                                      ray=pf.ray.reversed())
    return RayObjective(pf.oracle, pf.x, -pf.v, f0=f0)


@dataclass
class LineSearchResult:
    t: float
    phi_at_t: float
    phi0: float
    x_new: ManifoldPoint
    g_plus: TangentVector          # active for +eta, moved to x_new
    g_minus: TangentVector         # active for -eta, moved to x_new
    sign: int                      # +1 forward branch, -1 backward, 0 null
    tau_lo_final: float
    tau_hi_final: float
    tau_hi_start: float            # after the injectivity clamp
    approximate: bool              # stopped by bracket width, not optimality
    null: bool
    dplus0: float
    dminus0: float
    dminus_at_lo: float            # l'_-(tau_lo) at termination
    dplus_at_hi: float             # l'_+(tau_hi) at termination
    irp_iters: int
    evals: int


def irp(l, cfg: LineSearchConfig, inj_bound: float = math.inf,
        trace: list | None = None):
    """Interval reduction on a univariate semismooth function handle.

    ``l`` must expose value / right_deriv / left_deriv with l'_+(0) < 0.
    Returns (tau_star, tau_lo, tau_hi, approximate, iterations).
    """
    if cfg.tau_hi_init > inj_bound:
        raise ValueError("initial upper bound exceeds the injectivity bound")
    tau_lo, tau, tau_hi = cfg.tau_lo_init, cfg.tau_init, cfg.tau_hi_init

    for i in range(1, _IRP_MAX_ITERS + 1):
        if tau_hi - tau_lo <= cfg.interval_tol:
            return tau_lo, tau_lo, tau_hi, True, i - 1
        l_tau = l.value(tau)
        l_lo = l.value(tau_lo)
        branch = "upper"
        if l_tau < l_lo:
            if l.right_deriv(tau) >= 0.0:
                if l.left_deriv(tau) <= 0.0:
                    branch = "return"        # l'_-(tau) <= 0 <= l'_+(tau)
                else:
                    tau_hi = tau             # 0 < l'_-(tau)
            else:
                tau_lo, branch = tau, "lower"  # descent continues to the right
        else:
            tau_hi = tau                     # l(tau_lo) <= l(tau)
        if trace is not None:
            trace.append({"i": i, "tau_lo": tau_lo, "tau": tau,
                          "tau_hi": tau_hi, "l_tau": l_tau, "l_lo": l_lo,
                          "branch": branch})
        if branch == "return":
            return tau, tau_lo, tau_hi, False, i
        if math.isinf(tau_hi):
            tau = cfg.rho * max(tau_lo, 1.0)
        else:
            w = tau_hi - tau_lo
            mid = 0.5 * (tau_lo + tau_hi)
            tau = min(max(mid, tau_lo + cfg.q * w), tau_hi - cfg.q * w)
    raise LineSearchStallError(tau_lo, tau_hi)


def _clamped_config(cfg: LineSearchConfig, inj_bound: float) -> LineSearchConfig:
    """Shrink the initial bracket so tau_hi stays below the injectivity bound."""
    hi = min(cfg.tau_hi_init, inj_bound * (1.0 - 1e-9))
    if hi >= cfg.tau_hi_init:
        return cfg
    mid = min(cfg.tau_init, 0.5 * hi)
    lo = min(cfg.tau_lo_init, 0.5 * mid)
    return LineSearchConfig(lo, mid, hi, cfg.q, cfg.rho, cfg.interval_tol)


def line_search(pf: RayObjective, cfg: LineSearchConfig,
                trace: list | None = None) -> LineSearchResult:
    """One-dimensional minimization of f along +/- the ray of ``pf``.

    Searches forward when f decreases to the right of 0, backward when it
    decreases to the left, and otherwise reports a null step.  Subgradients
    for the direction update are selected at the final bracket endpoints and
    transported to the accepted iterate.
    """
    x = pf.x
    phi0 = pf.value(0.0)
    dplus0 = pf.right_deriv(0.0)
    dminus0 = pf.left_deriv(0.0)

    inj = x.manifold.injectivity_radius
    inj_bound = inj / pf.dir_norm if (math.isfinite(inj)
                                      and pf.dir_norm > 0.0) else math.inf
    eff = _clamped_config(cfg, inj_bound)

    if dplus0 < 0.0:
        sign, l = 1, pf
    elif dminus0 > 0.0:
        # Search phi(-tau); its right derivative at 0 is -dminus0 < 0.
        sign = -1
        l = _mirrored(pf, phi0)
    else:
        g_fwd = pf.subgrad_fwd(0.0)
        g_bwd = pf.subgrad_bwd(0.0)
        return LineSearchResult(
            t=0.0, phi_at_t=phi0, phi0=phi0, x_new=x,
            g_plus=g_fwd, g_minus=g_bwd, sign=0,
            tau_lo_final=0.0, tau_hi_final=0.0, tau_hi_start=eff.tau_hi_init,
            approximate=False, null=True, dplus0=dplus0, dminus0=dminus0,
            dminus_at_lo=dminus0, dplus_at_hi=dplus0,
            irp_iters=0, evals=pf.evals)

    tau_star, tau_lo, tau_hi, approx, iters = irp(l, eff, inj_bound, trace)

    x_new = l.point_at(tau_star)
    # Endpoint-selected subgradients.  Slopes first: on a restricted SPD ray
    # the subgradient then reuses the slopes' eigendecomposition.
    dplus_at_hi = l.right_deriv(tau_hi)
    g_fwd = l.subgrad_fwd(tau_hi)
    dminus_at_lo = l.left_deriv(tau_lo)
    g_bwd = l.subgrad_bwd(tau_lo)
    g_fwd = transport_between(l.point_at(tau_hi), x_new, g_fwd)
    g_bwd = transport_between(l.point_at(tau_lo), x_new, g_bwd)
    if sign > 0:
        g_plus, g_minus = g_fwd, g_bwd
    else:
        # Mirrored search: forward in l-space is backward along eta.
        g_plus, g_minus = g_bwd, g_fwd

    return LineSearchResult(
        t=sign * tau_star, phi_at_t=l.value(tau_star), phi0=phi0, x_new=x_new,
        g_plus=g_plus, g_minus=g_minus, sign=sign,
        tau_lo_final=tau_lo, tau_hi_final=tau_hi, tau_hi_start=eff.tau_hi_init,
        approximate=approx, null=False, dplus0=dplus0, dminus0=dminus0,
        dminus_at_lo=dminus_at_lo, dplus_at_hi=dplus_at_hi,
        irp_iters=iters, evals=pf.evals + (l.evals if l is not pf else 0))
