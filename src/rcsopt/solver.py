"""Conjugate subgradient solver on manifolds, plus a plain subgradient baseline.

Each iteration minimizes the objective along the current direction with the
bracketing line search, selects a pair of directionally active subgradients at
the final bracket endpoints, combines them into a subgradient orthogonal to
the transported direction, and takes the minimum-norm convex combination of
that subgradient's negative and the transported previous direction as the next
search direction.  The iterates' objective values never increase.

Trajectories record enough per-iteration state (points, directions, chosen
subgradients and the scalar diagnostics) to replay the direction recursion and
check its algebraic identities after the fact; see the ``*_residual`` helpers.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linesearch import (LineSearchConfig, LineSearchResult,
                         LineSearchStallError, line_search, ray_objective)
from .manifolds import (Manifold, ManifoldPoint, TangentVector, inner, norm,
                        retract, transport_between)
from .objectives import CountingOracle, EvalStats

_LAMBDA_TIE_TOL = 1e-14


class SolveStalledError(RuntimeError):
    """Line search stalled; carries the partial trajectory."""

    def __init__(self, cause: LineSearchStallError, trajectory: list):
        super().__init__(str(cause))
        self.trajectory = trajectory


@dataclass(frozen=True)
class SolverConfig:
    epsilon_stop: float = 1e-8
    max_iters: int = 10_000
    max_null_steps: int = 50
    ls: LineSearchConfig = field(default_factory=LineSearchConfig)

    def __post_init__(self):
        if self.epsilon_stop <= 0.0:
            raise ValueError("epsilon_stop must be positive")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class IterationRecord:
    """One trajectory row; row k describes the state entering iteration k.

    Rows parsed from a trajectory written without tangent data have ``x``,
    ``eta`` and ``gtilde`` set to None; the scalar checks need only the rest.
    """

    k: int
    f: float
    eta_norm: float
    gtilde_norm: float
    nf_cum: int
    time_cum_s: float
    x: ManifoldPoint | None = None
    eta: TangentVector | None = None
    gtilde: TangentVector | None = None
    # Line search performed *from* this row's point (filled once it ran).
    t: float | None = None
    null: bool = False
    ls: LineSearchResult | None = None
    # Direction-update diagnostics that produced this row (None for k = 1).
    d: TangentVector | None = None
    lam: float | None = None
    alpha: float | None = None
    cos2_theta: float | None = None
    ortho: float | None = None  # <gtilde, d> before stabilization (raw log)


@dataclass
class SolveResult:
    x: ManifoldPoint
    f: float
    stop_reason: str
    iters: int
    nf: int
    ls_calls: int
    null_steps: int
    wall_time_s: float
    trajectory: list[IterationRecord]

    def line_search_records(self) -> list[LineSearchResult]:
        return [r.ls for r in self.trajectory if r.ls is not None]


def select_lambda(ip_plus: float, ip_minus: float) -> float:
    """Convex weight putting the combined subgradient orthogonal to d.

    ``ip_plus``/``ip_minus`` are <g_plus, d> and <g_minus, d>.  Equal inner
    products fall back to 1/2; the result is clamped into [0, 1].
    """
    if abs(ip_plus - ip_minus) <= _LAMBDA_TIE_TOL * (1.0 + abs(ip_plus)
                                                     + abs(ip_minus)):
        return 0.5
    return float(min(max(ip_plus / (ip_plus - ip_minus), 0.0), 1.0))


def combine_subgradient(g_plus: TangentVector, g_minus: TangentVector,
                        lam: float) -> TangentVector:
    """lam * g_minus + (1 - lam) * g_plus."""
    return lam * g_minus + (1.0 - lam) * g_plus


def direction_update(gtilde: TangentVector,
                     d: TangentVector) -> tuple[TangentVector, float]:
    """Minimum-norm convex combination of -gtilde and the transported d.

    Returns (eta_new, alpha) with alpha = ||d||^2 / (||gtilde||^2 + ||d||^2)
    and eta_new = -alpha * gtilde + (1 - alpha) * d.  A zero eta_new signals
    Clarke stationarity.
    """
    ng2 = inner(gtilde, gtilde)
    nd2 = inner(d, d)
    tot = ng2 + nd2
    if tot == 0.0:
        return gtilde.base.manifold.zero_tangent(gtilde.base), 0.0
    alpha = nd2 / tot
    return (-alpha) * gtilde + (1.0 - alpha) * d, float(alpha)


def _cos2_theta(gtilde: TangentVector, d: TangentVector) -> float:
    """cos^2 of the angle between d and gtilde + d (equals alpha when g _|_ d)."""
    s = gtilde + d
    ns2 = inner(s, s)
    nd2 = inner(d, d)
    if ns2 <= 0.0 or nd2 <= 0.0:
        return nd2 / (inner(gtilde, gtilde) + nd2) if nd2 > 0.0 else 0.0
    return float(inner(d, s) ** 2 / (nd2 * ns2))


def conjugate_subgradient_solve(oracle, x0: ManifoldPoint,
                                cfg: SolverConfig | None = None,
                                seed: int = 0,
                                irp_trace: list | None = None) -> SolveResult:
    """Run the conjugate subgradient method from x0.

    The first direction is the negative of a directionally active subgradient
    for a seeded random direction (the plain gradient wherever the objective
    is smooth).  Stops when the direction norm drops to ``epsilon_stop``, after
    ``max_null_steps`` consecutive null steps, or at the iteration cap.
    """
    x0.manifold.point(x0.data)  # ValueError unless x0 is on its manifold
    cfg = cfg or SolverConfig()
    rng = np.random.default_rng(seed)
    stats = EvalStats()
    counting = CountingOracle(oracle, stats)
    start = time.perf_counter()

    x = x0
    f = counting.value(x)
    xi_rand = x.manifold.random_tangent(x, rng)
    g1 = counting.active_subgrad(x, xi_rand)
    gtilde, eta = g1, -g1
    rows = [IterationRecord(k=1, x=x, f=f, eta=eta, gtilde=gtilde,
                            eta_norm=norm(eta), gtilde_norm=norm(g1),
                            nf_cum=stats.nf,
                            time_cum_s=time.perf_counter() - start)]
    null_run = 0
    null_total = 0
    ls_calls = 0
    stop = "max_iters"

    for k in range(1, cfg.max_iters + 1):
        if rows[-1].eta_norm <= cfg.epsilon_stop:
            stop = "stationary"
            break
        pf = ray_objective(counting, x, eta, f0=f)
        try:
            res = line_search(pf, cfg.ls, trace=irp_trace)
        except LineSearchStallError as e:
            raise SolveStalledError(e, rows) from e
        ls_calls += 1
        rows[-1].t = res.t
        rows[-1].null = res.null
        rows[-1].ls = res
        # A collapsed bracket at tau_lo = 0 also leaves the iterate in place;
        # such zero steps count toward the consecutive-null stop.
        if res.t == 0.0:
            null_run += 1
            null_total += 1
        else:
            null_run = 0

        x_new, f_new = res.x_new, res.phi_at_t
        d = eta if res.null else transport_between(x, x_new, eta)
        ip_p = inner(res.g_plus, d)
        ip_m = inner(res.g_minus, d)
        lam = select_lambda(ip_p, ip_m)
        gtilde = combine_subgradient(res.g_plus, res.g_minus, lam)
        # When the bracket stops at the width tolerance or the injectivity
        # clamp, no convex weight can zero <gtilde, d> (the slopes need not
        # straddle 0 there).  The direction update annihilates that component
        # in exact arithmetic anyway, so it is removed outright; this keeps
        # the direction and norm recursions exact.  The raw value is logged.
        ortho_raw = inner(gtilde, d)
        nd2 = inner(d, d)
        if nd2 > 0.0:
            gtilde = gtilde - (ortho_raw / nd2) * d
        eta_new, alpha = direction_update(gtilde, d)

        x, f, eta = x_new, f_new, eta_new
        rows.append(IterationRecord(
            k=k + 1, x=x, f=f, eta=eta, gtilde=gtilde,
            eta_norm=norm(eta), gtilde_norm=norm(gtilde),
            nf_cum=stats.nf, time_cum_s=time.perf_counter() - start,
            d=d, lam=lam, alpha=alpha, cos2_theta=_cos2_theta(gtilde, d),
            ortho=ortho_raw))

        if null_run >= cfg.max_null_steps:
            stop = "null_steps"
            break
        if rows[-1].eta_norm <= cfg.epsilon_stop:
            stop = "stationary"
            break

    return SolveResult(x=x, f=f, stop_reason=stop, iters=len(rows) - 1,
                       nf=stats.nf, ls_calls=ls_calls, null_steps=null_total,
                       wall_time_s=time.perf_counter() - start,
                       trajectory=rows)


def subgradient_descent_solve(oracle, x0: ManifoldPoint,
                              cfg: SolverConfig | None = None,
                              seed: int = 0) -> SolveResult:
    """Riemannian subgradient descent with diminishing steps c / sqrt(k).

    Comparison baseline with the same trajectory schema as the conjugate
    solver; it carries no descent guarantee.
    """
    x0.manifold.point(x0.data)  # ValueError unless x0 is on its manifold
    cfg = cfg or SolverConfig()
    rng = np.random.default_rng(seed)
    stats = EvalStats()
    counting = CountingOracle(oracle, stats)
    start = time.perf_counter()

    x = x0
    f = counting.value(x)
    g = counting.active_subgrad(x, x.manifold.random_tangent(x, rng))
    c = 1.0 / (1.0 + norm(g))
    rows = [IterationRecord(k=1, x=x, f=f, eta=-g, gtilde=g,
                            eta_norm=norm(g), gtilde_norm=norm(g),
                            nf_cum=stats.nf,
                            time_cum_s=time.perf_counter() - start)]
    stop = "max_iters"
    for k in range(1, cfg.max_iters + 1):
        if rows[-1].gtilde_norm <= cfg.epsilon_stop:
            stop = "stationary"
            break
        t = c / math.sqrt(k)
        rows[-1].t = t
        x = retract(x, t * rows[-1].eta)
        f = counting.value(x)
        g = counting.active_subgrad(x, x.manifold.random_tangent(x, rng))
        rows.append(IterationRecord(
            k=k + 1, x=x, f=f, eta=-g, gtilde=g, eta_norm=norm(g),
            gtilde_norm=norm(g), nf_cum=stats.nf,
            time_cum_s=time.perf_counter() - start))
    return SolveResult(x=x, f=f, stop_reason=stop, iters=len(rows) - 1,
                       nf=stats.nf, ls_calls=0, null_steps=0,
                       wall_time_s=time.perf_counter() - start,
                       trajectory=rows)


# ---------------------------------------------------------------------------
# Trajectory verification: the algebraic identities of the direction update.
# ---------------------------------------------------------------------------

def fr_direction_check(trajectory: list[IterationRecord]) -> float:
    """Max relative residual of the Fletcher-Reeves equivalence.

    Replays eta_k^FR = -gtilde_k + (||gtilde_k||^2 / ||gtilde_{k-1}||^2)
    * T(eta_{k-1}^FR) along the recorded points and returns
    max_k ||  ||eta_k||^2 eta_k^FR - ||gtilde_k||^2 eta_k  ||
          / (||gtilde_k||^2 ||eta_k|| + 1e-300).
    """
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


def norm_recursion_residual(trajectory: list[IterationRecord]) -> float:
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


def descent_violations(trajectory: list[IterationRecord],
                       rel_tol: float = 1e-12) -> int:
    """Number of iterations where f increased beyond rel_tol."""
    bad = 0
    fs = [row.f for row in trajectory]
    for a, b in zip(fs, fs[1:]):
        if b > a + rel_tol * (1.0 + abs(a)):
            bad += 1
    return bad


def orthogonality_violations(trajectory: list[IterationRecord],
                             scale_tol: float = 1e-6):
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
# Trajectory (de)serialization: JSON lines, one record per iteration.
# ---------------------------------------------------------------------------

def trajectory_to_jsonl(trajectory: list[IterationRecord],
                        include_tangents: bool = False) -> str:
    """Serialize a trajectory; tangent data makes it replayable by check()."""
    lines = []
    for row in trajectory:
        rec = {"k": row.k, "f": row.f, "eta_norm": row.eta_norm,
               "gtilde_norm": row.gtilde_norm, "t": row.t,
               "lambda": row.lam, "alpha": row.alpha, "null": row.null,
               "nf_cum": row.nf_cum, "time_cum_s": row.time_cum_s}
        if row.ortho is not None:
            rec["ortho"] = row.ortho
        if include_tangents:
            rec["manifold"] = row.x.manifold.tag()
            rec["x"] = row.x.data.tolist()
            rec["eta"] = row.eta.data.tolist()
            rec["gtilde"] = row.gtilde.data.tolist()
        lines.append(json.dumps(rec))
    return "\n".join(lines) + "\n"


def trajectory_from_jsonl(text: str) -> list[IterationRecord]:
    """Parse trajectory records; rebuilds points/tangents when present.

    Lines written without tangent data give rows whose ``x``, ``eta`` and
    ``gtilde`` are None, which suffices for the scalar checks.
    """
    rows = []
    for line in text.splitlines():
        if not line.strip():
            continue
        rec = json.loads(line)
        x = eta = gtilde = None
        if "x" in rec and "manifold" in rec:
            x = ManifoldPoint(Manifold.from_tag(rec["manifold"]),
                              np.array(rec["x"]))
            eta = TangentVector(x, np.array(rec["eta"]))
            gtilde = TangentVector(x, np.array(rec["gtilde"]))
        rows.append(IterationRecord(
            k=rec["k"], x=x, f=rec["f"], eta=eta, gtilde=gtilde,
            eta_norm=rec["eta_norm"], gtilde_norm=rec["gtilde_norm"],
            nf_cum=rec["nf_cum"], time_cum_s=rec["time_cum_s"],
            t=rec.get("t"), null=bool(rec.get("null", False)),
            lam=rec.get("lambda"), alpha=rec.get("alpha"),
            ortho=rec.get("ortho")))
    return rows
