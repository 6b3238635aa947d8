"""Bracketing line search with interval reduction for semismooth objectives.

The search works on the univariate restriction l(t) = f(R_x(t v)) of an
oracle to a retraction ray.  Every oracle offers ``restrict(x, v)`` (see
:mod:`rcsopt.objectives`), and the ray it returns answers the whole search:
values, one-sided slopes along the transported direction, and the
directionally active subgradients at the final bracket endpoints.  The
search makes no other oracle call.  :func:`line_search` checks the
direction's base point, restricts the oracle to the ray and hands the ray
itself to :func:`irp`.  The ray's two-entry memo is the only per-step cache
of a search.  When f rises along v but falls along -v, the search drops
that ray and is a forward search on the ray along -v, with l(0) handed on:
one more ``restrict``, and a step t = -tau.  A backward search that finds
no decrease therefore records t = -0.0, which compares equal to 0.  The
search runs on raw arrays, wrapped once in the :class:`LineSearchResult`.
A null step (no descent either way, ``sign == 0``) is the bracket [0, 0]
and builds its result on the same path, from the slopes and the
subgradients at x.  :func:`irp` reads a ray through ``value(t)`` and
``slopes(t)``, the pair (l'_+(t), l'_-(t)) with the rays' own contract.

:func:`irp` takes l(0) as given and reads l once per trial, each trial at
a step of its own, so a search's evaluations are its trials (plus l(0)
when the caller does not know f(x)).  When the first trial fails, every
later trial is compared with l(0) until one decreases, and each failure
halves the bracket, so the trials up to the width stop are known in advance
(:func:`_fail_chain`).  A ray that offers ``values(ts)`` (the Rayleigh ray)
answers that chain in one batched call; :func:`irp` finds the first
decrease in one pass over those values, traces each failure before it, and
takes the trials on the chain from the same values.

A trace is a list that :func:`irp` appends one tuple to per trial, in
:data:`IRP_FIELDS` order; :func:`irp_records` reads it back as dicts.

The interval reduction loop keeps a bracket [tau_lo, tau_hi] around a
one-dimensional local minimizer and stops either at a point satisfying
l'_-(t) <= 0 <= l'_+(t) or when the bracket is narrower than
``interval_tol`` (returning tau_lo, which never increased the objective).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import repeat

from .manifolds import (ManifoldPoint, TangentVector, _adopt, _require_base,
                        norm)

_IRP_MAX_ITERS = 10_000
# Field order of a traced trial, and of each record dict irp_records yields.
IRP_FIELDS = ("i", "tau_lo", "tau", "tau_hi", "l_tau", "l_lo", "branch")


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
    bracket-width stop 1e-6.  The bracket always starts at 0, so a step
    never raises f above f(x).
    """

    tau_init: float = 1.0
    tau_hi_init: float = 100.0
    q: float = 0.33
    rho: float = 2.0
    interval_tol: float = 1e-6

    def __post_init__(self):
        # Each check is written so that a NaN fails it, and the last also
        # an infinity.
        if not 0.0 < self.tau_init < self.tau_hi_init:
            raise ValueError("need 0 < tau_init < tau_hi_init")
        if not 0.0 < self.q < 0.5:
            raise ValueError("need 0 < q < 1/2")
        if not self.rho > 1.0:
            raise ValueError("need rho > 1")
        if not 0.0 < self.interval_tol < math.inf:
            raise ValueError("need 0 < interval_tol < inf")


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
    dplus0: float
    dminus0: float
    dminus_at_lo: float            # l'_-(tau_lo) at termination
    dplus_at_hi: float             # l'_+(tau_hi) at termination
    irp_iters: int
    evals: int


def _next_trial(tau_lo: float, tau_hi: float, cfg: LineSearchConfig) -> float:
    """The IRP's next trial: grow past an infinite upper bound, else the
    midpoint clamped q * width inside the bracket."""
    if math.isinf(tau_hi):
        return cfg.rho * max(tau_lo, 1.0)
    w = tau_hi - tau_lo
    mid = 0.5 * (tau_lo + tau_hi)
    return min(max(mid, tau_lo + cfg.q * w), tau_hi - cfg.q * w)


def _fail_chain(tau_hi: float, cfg: LineSearchConfig) -> list[float]:
    """The trials the IRP makes in [0, tau_hi] when every one of them fails,
    i.e. until the bracket is ``interval_tol`` wide: tau_hi * 2^-k.

    With tau_lo = 0 the midpoint tau_hi / 2 is exact, and for q < 1/2 the
    rounded clamp bounds q * tau_hi and tau_hi - q * tau_hi lie on either
    side of it, so ``_next_trial(0, tau_hi)`` is exactly tau_hi / 2.
    """
    chain = []
    while tau_hi > cfg.interval_tol:
        tau_hi *= 0.5
        chain.append(tau_hi)
    return chain


def irp(l, cfg: LineSearchConfig, start: tuple[float, float], l0: float,
        trace: list | None = None):
    """Interval reduction on a univariate semismooth function handle.

    ``l`` must expose ``value(t)`` and ``slopes(t)`` = (l'_+(t), l'_-(t))
    with l'_+(0) < 0; ``l0`` is l(0), which is never read.  ``start`` is
    the first trial and the initial upper bound; :func:`line_search` passes
    the injectivity-clamped pair from :func:`_clamped_start`.
    When the first trial fails and ``l`` has ``values(ts)``, it is asked
    once for the values of the rest of the all-fail trial chain.  While
    tau_lo stays 0 the trials follow that chain, each run of failures is
    settled from those values at once, and each trial on the chain takes
    its value from them.  Every other trial reads ``l.value`` once.
    ``trace``, when given, is a list that receives one :data:`IRP_FIELDS`
    tuple per trial; read it with :func:`irp_records`.
    Returns (tau_star, l(tau_star), tau_lo, tau_hi, approximate,
    iterations).
    """
    tau, tau_hi = start
    tau_lo, l_lo = 0.0, l0
    batch = getattr(l, "values", None)

    chain = vals = None  # all-fail chain and its values, while tau_lo = 0
    nxt = 0              # index in the chain of the trial after this one
    i = 0
    while i < _IRP_MAX_ITERS:
        i += 1
        if tau_hi - tau_lo <= cfg.interval_tol:
            return tau_lo, l_lo, tau_lo, tau_hi, True, i - 1
        # On the chain, this trial is chain[nxt - 1] (see _fail_chain).
        l_tau = l.value(tau) if chain is None else vals[nxt - 1]
        branch = "upper"
        if l_tau < l_lo:
            dplus, dminus = l.slopes(tau)
            if dplus >= 0.0:
                if dminus <= 0.0:
                    branch = "return"        # l'_-(tau) <= 0 <= l'_+(tau)
                else:
                    tau_hi = tau             # 0 < l'_-(tau)
            else:
                tau_lo, branch = tau, "lower"  # descent continues to the right
        else:
            tau_hi = tau                     # l(tau_lo) <= l(tau)
            if i == 1 and batch is not None:
                chain = _fail_chain(tau_hi, cfg)
                vals = batch(chain)
        if trace is not None:
            trace.append((i, tau_lo, tau, tau_hi, l_tau, l_lo, branch))
        if branch == "return":
            return tau, l_tau, tau_lo, tau_hi, False, i
        if branch == "lower":
            l_lo = l_tau
            chain = None                     # tau_lo > 0: off the chain
        elif chain is not None:
            # tau_lo = 0, so the next trials are chain[nxt:], each compared
            # with l(0).  The failures before the next decrease (chain[k])
            # become tau_hi in turn; settle them in one pass, then take
            # chain[k] as the next trial.
            k = next((j for j in range(nxt, len(vals)) if vals[j] < l_lo),
                     len(vals))
            if k > nxt:
                if trace is not None:
                    # Each failure at tau = tau_hi = chain[j], tau_lo = 0.
                    run = chain[nxt:k]
                    trace.extend(zip(range(i + 1, i + 1 + k - nxt),
                                     repeat(0.0), run, run, vals[nxt:k],
                                     repeat(l_lo), repeat("upper")))
                i += k - nxt
                tau_hi = chain[k - 1]
            nxt = k + 1
        tau = _next_trial(tau_lo, tau_hi, cfg)
    raise LineSearchStallError(tau_lo, tau_hi)


def irp_records(trace: list):
    """The trial records of a trace filled by :func:`irp`, in order: one
    dict per trial with the keys of :data:`IRP_FIELDS`."""
    for entry in trace:
        yield dict(zip(IRP_FIELDS, entry))


def _clamped_start(cfg: LineSearchConfig,
                   tau_max: float) -> tuple[float, float]:
    """(first trial, upper bound) of the initial bracket, shrunk so that
    tau_hi stays below ``tau_max``, the step that reaches the injectivity
    radius; ValueError naming ``tau_max`` if nothing of the bracket is left
    (an infinite direction norm, or one near overflow).  The config is not
    at fault then: it was checked when it was made."""
    hi = min(cfg.tau_hi_init, tau_max * (1.0 - 1e-9))
    if hi >= cfg.tau_hi_init:
        return cfg.tau_init, cfg.tau_hi_init
    tau = min(cfg.tau_init, 0.5 * hi)
    if not 0.0 < tau < hi:
        raise ValueError(f"no initial bracket fits below tau_max = "
                         f"{tau_max!r}, the step to the injectivity radius: "
                         "the direction norm is infinite or near overflow")
    return tau, hi


def line_search(oracle, x: ManifoldPoint, v: TangentVector,
                cfg: LineSearchConfig, f0: float | None = None,
                dir_norm: float | None = None,
                trace: list | None = None) -> LineSearchResult:
    """One-dimensional minimization of f along +/- the ray R_x(t v).

    The base point of v is checked first, before ``oracle.restrict`` builds
    the ray; a mismatch costs no evaluation.  ``f0`` is f(x) when the
    caller has it, else it is read from the ray (one more evaluation), and
    ``dir_norm`` is ||v|| when the caller has it (the solver's row
    ``eta_norm``), else it is computed.  Searches forward when f decreases
    to the right of 0, backward when it decreases to the left, and
    otherwise reports a null step.  Subgradients for the direction update
    are selected at the final bracket endpoints and transported to the
    accepted iterate; a null step is the bracket [0, 0], so both come from
    x itself.  ``trace``, when given, is handed to :func:`irp` and receives
    its trial tuples (a null step adds none); :func:`irp_records` reads
    them back as dicts.
    """
    _require_base(x, v, "ray")
    ray = oracle.restrict(x, v)
    phi0 = ray.value(0.0) if f0 is None else f0
    dplus0, dminus0 = ray.slopes(0.0)

    dir_norm = norm(v) if dir_norm is None else dir_norm
    inj = x.manifold.injectivity_radius
    tau_max = inj / dir_norm if (math.isfinite(inj)
                                 and dir_norm > 0.0) else math.inf
    start = _clamped_start(cfg, tau_max)

    sign = 1 if dplus0 < 0.0 else -1 if dminus0 > 0.0 else 0
    if sign < 0:
        # Search phi(-tau) on the ray along -v; its right derivative at 0
        # is -dminus0 < 0.  The forward ray goes before the next is built.
        ray, v = None, -v
        ray = oracle.restrict(x, v)
    tau_star = tau_lo = tau_hi = 0.0
    phi, approx, iters = phi0, False, 0
    if sign:
        tau_star, phi, tau_lo, tau_hi, approx, iters = irp(ray, cfg, start,
                                                           phi0, trace)

    # Each distinct nonzero step among tau*, tau_lo and tau_hi is retracted
    # once, in raw arrays; t = 0 is x itself.  Only x_new is wrapped.
    m, xd, vd = x.manifold, x.data, v.data
    pts = {0.0: xd}
    for t in (tau_star, tau_lo, tau_hi):
        if t not in pts:
            pts[t] = m._retract(xd, t * vd)
    x_new = x if tau_star == 0.0 else _adopt(ManifoldPoint, m, pts[tau_star])
    # Endpoint-selected subgradients.  Slopes first: the subgradient then
    # reuses the ray's per-step memo (on the SPD ray, its eigendecomposition).
    # At a null step both endpoints are 0, and ``_carry`` returns the
    # subgradients of x unmoved.
    dplus_at_hi = ray.slopes(tau_hi)[0]
    g_fwd = m._carry(pts[tau_hi], x_new.data, ray.subgrad(tau_hi, True))
    dminus_at_lo = ray.slopes(tau_lo)[1]
    g_bwd = m._carry(pts[tau_lo], x_new.data, ray.subgrad(tau_lo, False))
    # A mirrored search's forward in l-space is backward along eta.
    g_plus, g_minus = (g_bwd, g_fwd) if sign < 0 else (g_fwd, g_bwd)

    return LineSearchResult(
        t=sign * tau_star, phi_at_t=phi, phi0=phi0, x_new=x_new,
        g_plus=_adopt(TangentVector, x_new, g_plus),
        g_minus=_adopt(TangentVector, x_new, g_minus), sign=sign,
        tau_lo_final=tau_lo, tau_hi_final=tau_hi, tau_hi_start=start[1],
        approximate=approx, dplus0=dplus0, dminus0=dminus0,
        dminus_at_lo=dminus_at_lo, dplus_at_hi=dplus_at_hi,
        irp_iters=iters, evals=iters + (f0 is None))
