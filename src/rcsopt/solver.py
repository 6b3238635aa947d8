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

Both solvers share one entry prologue (:func:`_start`), which checks the
inputs once, before any evaluation: the oracle must offer
``value_and_subgrad`` and ``restrict`` (TypeError), and ``x0`` must be a
point of the oracle's manifold (ValueError).  The solve loops then run on
raw arrays with the manifold's unchecked methods; only the trajectory rows
hold points and tangent vectors.  :func:`direction_update` is the loop's
own raw-array update, not a wrapper around it.  A row does not keep the
transported direction d: it is ``transport_between(prev.x, row.x,
prev.eta)``, bit for bit.

The evaluation count ``nf`` is summed where the evaluations happen: one for
the ``value_and_subgrad`` pass at x0 that gives the value and the first
subgradient, plus each line search's ``evals`` (the ray values it read); the
subgradient baseline makes one ``value_and_subgrad`` pass at every iterate.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .linesearch import (LineSearchConfig, LineSearchResult,
                         LineSearchStallError, RayObjective, line_search)
from .manifolds import (Manifold, ManifoldPoint, TangentVector, _adopt, norm,
                        transport_between)

_LAMBDA_TIE_TOL = 1e-14
# The oracle methods the solvers need besides ``manifold``.
_REQUIRED_METHODS = ("value_and_subgrad", "restrict")


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


def direction_update(g: np.ndarray, d: np.ndarray, ng2: float,
                     nd2: float) -> tuple[np.ndarray, float]:
    """Minimum-norm convex combination of -g and the transported d.

    ``g`` and ``d`` are the data of tangent vectors at one point, with
    ng2 = <g, g> and nd2 = <d, d>.  Returns (eta_new, alpha) with
    alpha = ||d||^2 / (||g||^2 + ||d||^2) and
    eta_new = -alpha * g + (1 - alpha) * d.  A zero eta_new signals Clarke
    stationarity.
    """
    tot = ng2 + nd2
    if tot == 0.0:
        return np.zeros_like(g), 0.0
    alpha = nd2 / tot
    return (-alpha) * g + (1.0 - alpha) * d, float(alpha)


def _cos2(ip, x, g, d, ng2: float, nd2: float) -> float:
    """cos^2 of the angle between d and g + d (equals alpha when g _|_ d);
    ``ip`` is ``Manifold._inner``, and ng2, nd2 are as for
    :func:`direction_update`."""
    s = g + d
    ns2 = ip(x, s, s)
    if ns2 <= 0.0 or nd2 <= 0.0:
        return nd2 / (ng2 + nd2) if nd2 > 0.0 else 0.0
    return float(ip(x, d, s) ** 2 / (nd2 * ns2))


def _start(oracle, x0: ManifoldPoint, cfg: SolverConfig | None, seed: int):
    """Entry prologue of both solvers: (cfg, rng, clock start, f(x0), g),
    with g the subgradient at x0 for a seeded random direction.

    TypeError unless the oracle has the required methods; ValueError unless
    x0 is a point of its manifold and that is the oracle's.
    """
    for meth in _REQUIRED_METHODS:
        if not callable(getattr(oracle, meth, None)):
            raise TypeError(f"oracle has no {meth} method; the solvers "
                            f"require {' and '.join(_REQUIRED_METHODS)}")
    x0.manifold.point(x0.data)  # ValueError unless x0 is on its manifold
    if x0.manifold != oracle.manifold:
        raise ValueError(f"x0 lies on {x0.manifold.tag()}, the oracle on "
                         f"{oracle.manifold.tag()}")
    rng = np.random.default_rng(seed)
    start = time.perf_counter()
    f, g = oracle.value_and_subgrad(x0, x0.manifold.random_tangent(x0, rng))
    return cfg or SolverConfig(), rng, start, f, g


def conjugate_subgradient_solve(oracle, x0: ManifoldPoint,
                                cfg: SolverConfig | None = None,
                                seed: int = 0,
                                irp_trace: list | None = None) -> SolveResult:
    """Run the conjugate subgradient method from x0.

    The first direction is the negative of a directionally active subgradient
    for a seeded random direction (the plain gradient wherever the objective
    is smooth).  Stops when the direction norm drops to ``epsilon_stop``, after
    ``max_null_steps`` consecutive null steps, or at the iteration cap.
    ``irp_trace``, when given, is passed to every line search as its
    ``trace``; read it with :func:`rcsopt.linesearch.irp_records`.
    """
    cfg, _, start, f, g1 = _start(oracle, x0, cfg, seed)
    M = x0.manifold
    x = x0
    nf = 1
    eta1 = -g1
    rows = [IterationRecord(k=1, x=x, f=f, eta=eta1, gtilde=g1,
                            eta_norm=norm(eta1), gtilde_norm=norm(g1),
                            nf_cum=nf,
                            time_cum_s=time.perf_counter() - start)]
    null_run = 0
    null_total = 0
    ls_calls = 0
    stop = "max_iters"

    for k in range(1, cfg.max_iters + 1):
        prev = rows[-1]
        if prev.eta_norm <= cfg.epsilon_stop:
            stop = "stationary"
            break
        pf = RayObjective(oracle, x, prev.eta, f0=f, dir_norm=prev.eta_norm)
        try:
            res = line_search(pf, cfg.ls, trace=irp_trace)
        except LineSearchStallError as e:
            raise SolveStalledError(e, rows) from e
        ls_calls += 1
        nf += res.evals
        prev.t = res.t
        prev.null = res.null
        prev.ls = res
        # A collapsed bracket at tau_lo = 0 also leaves the iterate in place;
        # such zero steps count toward the consecutive-null stop.
        if res.t == 0.0:
            null_run += 1
            null_total += 1
        else:
            null_run = 0

        # Raw arrays at x_new from here on; a null step keeps x_new = x.
        # Each inner product is taken once: <d, d> and <gtilde, gtilde>
        # serve the direction update, cos^2 and the row's gtilde_norm.
        x_new, f_new = res.x_new, res.phi_at_t
        xd, ip = x_new.data, M._inner
        g_plus, g_minus = res.g_plus.data, res.g_minus.data
        d = M._carry(x.data, xd, prev.eta.data)
        lam = select_lambda(ip(xd, g_plus, d), ip(xd, g_minus, d))
        gtilde = combine_subgradient(g_plus, g_minus, lam)
        # When the bracket stops at the width tolerance or the injectivity
        # clamp, no convex weight can zero <gtilde, d> (the slopes need not
        # straddle 0 there).  The direction update annihilates that component
        # in exact arithmetic anyway, so it is removed outright; this keeps
        # the direction and norm recursions exact.  The raw value is logged.
        ortho_raw = ip(xd, gtilde, d)
        nd2 = ip(xd, d, d)
        if nd2 > 0.0:
            gtilde = gtilde - (ortho_raw / nd2) * d
        ng2 = ip(xd, gtilde, gtilde)
        eta, alpha = direction_update(gtilde, d, ng2, nd2)

        x, f = x_new, f_new
        rows.append(IterationRecord(
            k=k + 1, x=x, f=f, eta=_adopt(TangentVector, x, eta),
            gtilde=_adopt(TangentVector, x, gtilde),
            eta_norm=M._norm(xd, eta), gtilde_norm=math.sqrt(max(ng2, 0.0)),
            nf_cum=nf, time_cum_s=time.perf_counter() - start,
            lam=lam, alpha=alpha,
            cos2_theta=_cos2(ip, xd, gtilde, d, ng2, nd2), ortho=ortho_raw))

        if null_run >= cfg.max_null_steps:
            stop = "null_steps"
            break
        if rows[-1].eta_norm <= cfg.epsilon_stop:
            stop = "stationary"
            break

    return SolveResult(x=x, f=f, stop_reason=stop, iters=len(rows) - 1,
                       nf=nf, ls_calls=ls_calls, null_steps=null_total,
                       wall_time_s=time.perf_counter() - start,
                       trajectory=rows)


def subgradient_descent_solve(oracle, x0: ManifoldPoint,
                              cfg: SolverConfig | None = None,
                              seed: int = 0) -> SolveResult:
    """Riemannian subgradient descent with diminishing steps c / sqrt(k).

    Comparison baseline with the same trajectory schema as the conjugate
    solver; it carries no descent guarantee.
    """
    cfg, rng, start, f, g = _start(oracle, x0, cfg, seed)
    M = x0.manifold
    x = x0
    ng = M._norm(x.data, g.data)
    c = 1.0 / (1.0 + ng)
    rows = [IterationRecord(k=1, x=x, f=f, eta=-g, gtilde=g,
                            eta_norm=ng, gtilde_norm=ng, nf_cum=1,
                            time_cum_s=time.perf_counter() - start)]
    stop = "max_iters"
    for k in range(1, cfg.max_iters + 1):
        if ng <= cfg.epsilon_stop:
            stop = "stationary"
            break
        t = c / math.sqrt(k)
        rows[-1].t = t
        x = _adopt(ManifoldPoint, M, M._retract(x.data, t * rows[-1].eta.data))
        f, g = oracle.value_and_subgrad(x, M.random_tangent(x, rng))
        ng = M._norm(x.data, g.data)
        rows.append(IterationRecord(
            k=k + 1, x=x, f=f, eta=-g, gtilde=g, eta_norm=ng,
            gtilde_norm=ng, nf_cum=k + 1,
            time_cum_s=time.perf_counter() - start))
    return SolveResult(x=x, f=f, stop_reason=stop, iters=len(rows) - 1,
                       nf=len(rows), ls_calls=0, null_steps=0,
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

def trajectory_lines(trajectory: list[IterationRecord],
                     include_tangents: bool = False):
    """The JSON line of each row, without its newline, one at a time, so a
    writer can stream a trajectory; tangent data makes it replayable by
    check()."""
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
        yield json.dumps(rec)


def trajectory_to_jsonl(trajectory: list[IterationRecord],
                        include_tangents: bool = False) -> str:
    """The lines of :func:`trajectory_lines` as one JSONL string."""
    return "\n".join(trajectory_lines(trajectory, include_tangents)) + "\n"


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
