"""Conjugate subgradient solver on manifolds, plus a plain subgradient baseline.

Each iteration minimizes the objective along the current direction with the
bracketing line search, selects a pair of directionally active subgradients at
the final bracket endpoints, combines them into a subgradient orthogonal to
the transported direction, and takes the minimum-norm convex combination of
that subgradient's negative and the transported previous direction as the next
search direction.  The iterates' objective values never increase.

Every trajectory row holds the scalar diagnostics of its iteration, which is
all the descent, norm-recursion and orthogonality checks read.  A solve
keeps no tangent vector beyond the current iterate unless it is asked to,
and it holds one ray at a time: each search's ray, with its memo, is freed
when the search returns, before the next ``restrict`` builds the next one.
Both loops make and hand on their rows through one recorder built from
``record``, and every row takes the same path: once its line search has
run, it goes to a sink.  ``record`` may be that sink, a callable
``sink(row, irp_entries)``: each row then also keeps its point, direction
and combined subgradient (enough to replay the direction recursion after
the fact) and comes with its search's IRP entries, one tuple per trial
(None from the subgradient baseline, which makes no search), and the solve
keeps no row list.  Otherwise the sink is the recorder's own, which keeps
the rows in :attr:`SolveResult.trajectory`: with their tangent vectors
under ``record=True``, scalars only by default; neither builds IRP
entries.  A callable sink sees exactly what ``bench run --trace`` writes:
every row field round-trips through :func:`trajectory_lines` and
:func:`trajectory_from_jsonl`, and the entries through
:func:`rcsopt.linesearch.irp_records`.  The solve's clock leaves out the
time a sink takes.  Recording changes no operation of the solve, so
iterates, trial values and ``nf`` are bit-identical either way.

:func:`check_trajectory` checks all four invariants of a trajectory in one
pass over any iterable of rows, in memory or streamed from a JSON-lines
file by :func:`trajectory_from_jsonl`; the tolerances and the pass
thresholds of ``bench check`` are this module's constants.

Both solvers share one entry prologue (:func:`_start`), which checks the
inputs once, before any evaluation: the oracle must offer
``value_and_subgrad`` and ``restrict`` (TypeError), and ``x0`` must be a
point of the oracle's manifold (ValueError).  The solve loops then run on
raw arrays with the manifold's unchecked methods, holding the current point
and direction in local variables.  :func:`direction_update` is the loop's
own raw-array update, not a wrapper around it.  A recorded row does not
keep the transported direction d: it is ``transport_between(prev.x, row.x,
prev.eta)``, bit for bit.

The evaluation count ``nf`` is summed where the evaluations happen: one for
the ``value_and_subgrad`` pass at x0 that gives the value and the first
subgradient, plus each line search's ``evals`` (its trials, as f(x) is
handed to it); the subgradient baseline makes one ``value_and_subgrad`` pass
at every iterate.
"""

from __future__ import annotations

import json
import math
import numbers
import time
from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .linesearch import LineSearchConfig, LineSearchStallError, line_search
from .manifolds import (Manifold, ManifoldPoint, TangentVector, _adopt,
                        check_tangent, norm, transport_between)

_LAMBDA_TIE_TOL = 1e-14
# The oracle methods the solvers need besides ``manifold``.
_REQUIRED_METHODS = ("value_and_subgrad", "restrict")


class SolveStalledError(RuntimeError):
    """Line search stalled.  ``rows`` is the number of rows the solve made,
    the stalled search's own included, and ``nf`` that row's ``nf_cum``,
    the evaluations before the stalled search.  A sink has been handed
    every row, the stalled one last with the entries its search traced."""

    def __init__(self, cause: LineSearchStallError, rows: int, nf: int):
        super().__init__(str(cause))
        self.rows = rows
        self.nf = nf


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


@dataclass(frozen=True)
class SolverConfig:
    epsilon_stop: float = 1e-8
    max_iters: int = 10_000
    max_null_steps: int = 50
    ls: LineSearchConfig = field(default_factory=LineSearchConfig)

    def __post_init__(self):
        # Written so that a NaN or an infinity fails the check.
        if not 0.0 < self.epsilon_stop < math.inf:
            raise ValueError(f"epsilon_stop must be positive and finite, "
                             f"got {self.epsilon_stop!r}")
        for name in ("max_iters", "max_null_steps"):
            v = getattr(self, name)
            if not (_is_int(v) and v >= 1):
                raise ValueError(f"{name} must be an integer >= 1, got {v!r}")
        if not isinstance(self.ls, LineSearchConfig):
            raise TypeError(f"ls must be a LineSearchConfig, "
                            f"got {self.ls!r}")


@dataclass(slots=True)
class IterationRecord:
    """One trajectory row; row k describes the state entering iteration k.

    Rows of a solve run without ``record=True``, and rows parsed from a
    trajectory written without tangent data, have ``x``, ``eta`` and
    ``gtilde`` set to None; the scalar checks need only the rest.  Every
    field is written by :func:`trajectory_lines` (the tangents with
    ``include_tangents``) and read back by :func:`trajectory_from_jsonl`.
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
    # Line search performed *from* this row's point (filled once it ran);
    # width_stop: it stopped at the bracket width, not the optimality test.
    t: float | None = None
    null: bool = False
    width_stop: bool = False
    # Direction-update diagnostics that produced this row (None for k = 1).
    lam: float | None = None
    alpha: float | None = None
    ortho: float | None = None  # <gtilde, d> before stabilization (raw log)


@dataclass
class SolveResult:
    """What a solve returns.

    ``x`` and ``f`` are the final iterate and its value; ``stop_reason`` is
    ``"stationary"`` (``eta_norm`` at or below ``epsilon_stop``),
    ``"edge_stop"`` (the same, but right after an edge stop: a line search
    whose upper bound never left the injectivity clamp, so the minimum
    along the direction was not bracketed and x need not be stationary),
    ``"null_steps"`` (``max_null_steps`` consecutive zero steps) or
    ``"max_iters"``; ``iters`` is the number of iterations, one line search
    each for the conjugate solver; ``nf`` counts the oracle evaluations.
    ``trajectory`` holds one :class:`IterationRecord` per iterate, none
    when the rows went to a callable sink, which alone is handed the
    IRP entries of the line searches.
    """

    x: ManifoldPoint
    f: float
    stop_reason: str
    iters: int
    nf: int
    trajectory: list[IterationRecord]


def select_lambda(ip_plus: float, ip_minus: float) -> float:
    """Convex weight putting the combined subgradient orthogonal to d.

    ``ip_plus``/``ip_minus`` are <g_plus, d> and <g_minus, d>.  Equal inner
    products fall back to 1/2; the result is clamped into [0, 1].
    """
    if abs(ip_plus - ip_minus) <= _LAMBDA_TIE_TOL * (1.0 + abs(ip_plus)
                                                     + abs(ip_minus)):
        return 0.5
    return float(min(max(ip_plus / (ip_plus - ip_minus), 0.0), 1.0))


def combine_subgradient(g_plus: TangentVector | np.ndarray,
                        g_minus: TangentVector | np.ndarray,
                        lam: float) -> TangentVector | np.ndarray:
    """lam * g_minus + (1 - lam) * g_plus.

    The two subgradients are tangent data of one point, either both
    :class:`TangentVector` or both raw arrays (the solve loop's form); the
    result has the same form.
    """
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


def _start(oracle, x0: ManifoldPoint, cfg: SolverConfig | None, seed: int,
           rec: _Recorder):
    """Entry prologue of both solvers: (cfg, rng, f(x0), g), with g the
    subgradient at x0 for a seeded random direction; starts ``rec``'s clock.

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
    rec.start = time.perf_counter()
    f, g = oracle.value_and_subgrad(x0, x0.manifold.random_tangent(x0, rng))
    return cfg or SolverConfig(), rng, f, g


class _Recorder:
    """A solve's recording, built once from its ``record`` argument.

    Every row is made by :meth:`row` and handed on by :meth:`hand_on` to
    one sink: the callable ``record``, or else the recorder's own, which
    keeps the row in ``rows`` (the result's trajectory).  Rows keep their
    point, direction and combined subgradient unless ``record`` is False.
    ``entries`` is the IRP entry list a search appends to, None unless a
    callable sink of a solve that searches will read it.  ``start`` is the
    solve clock's origin; it moves past the time a sink takes.  TypeError
    unless ``record`` is False, True or a callable.
    """

    def __init__(self, record, searches: bool):
        if not (record is False or record is True or callable(record)):
            raise TypeError(f"record must be a bool or a callable "
                            f"sink(row, irp_entries), got {record!r}")
        rows: list[IterationRecord] = []
        sunk = callable(record)
        # A closure over the list, not a bound method: a recorder that
        # refers to itself lives, with its rows, until the cycle collector
        # runs, which raises the benchmark's peak RSS (sphere-cs: 2.5 MB).
        self.sink = record if sunk else lambda row, entries: rows.append(row)
        self.rows = rows
        self.tangents = record is not False
        self.entries = [] if searches and sunk else None
        self.start = 0.0

    def row(self, x: ManifoldPoint, eta: TangentVector, gtilde: np.ndarray,
            k: int, f: float, eta_norm: float, gtilde_norm: float,
            nf_cum: int, lam: float | None = None, alpha: float | None = None,
            ortho: float | None = None) -> IterationRecord:
        """A new row stamped with the solve clock; it keeps its tangent
        vectors (``gtilde`` is the raw data at x) only when recording.
        The scalars are named, not ``**``-packed, which would build and
        unpack a dict per row (about doubling the cost of a row)."""
        row = IterationRecord(k, f, eta_norm, gtilde_norm, nf_cum,
                              time.perf_counter() - self.start, lam=lam,
                              alpha=alpha, ortho=ortho)
        if self.tangents:
            row.x, row.eta = x, eta
            row.gtilde = _adopt(TangentVector, x, gtilde)
        return row

    def hand_on(self, row: IterationRecord) -> None:
        """Hand a finished row on with the entries its search traced; the
        clock leaves out the time this takes."""
        t = time.perf_counter()
        self.sink(row, self.entries)
        if self.entries is not None:
            self.entries = []
        self.start += time.perf_counter() - t


def conjugate_subgradient_solve(oracle, x0: ManifoldPoint,
                                cfg: SolverConfig | None = None,
                                seed: int = 0,
                                record: bool | Callable = False
                                ) -> SolveResult:
    """Run the conjugate subgradient method from x0.

    The first direction is the negative of a directionally active subgradient
    for a seeded random direction (the plain gradient wherever the objective
    is smooth).  Stops when the direction norm drops to ``epsilon_stop``
    (``"edge_stop"`` right after an unbracketed search, see
    :class:`SolveResult`), after ``max_null_steps`` consecutive null steps,
    or at the iteration cap.  Unrecorded, rows hold scalars only.
    Recorded, each row keeps its point, direction and combined subgradient;
    ``record=True`` keeps the rows in the result's ``trajectory``, while a
    callable ``record`` is handed row k with the IRP entries of its line
    search (read them with :func:`rcsopt.linesearch.irp_records`) when
    iteration k ends, and the last row at the end (also at a stall, before
    :class:`SolveStalledError` is raised).
    """
    rec = _Recorder(record, searches=True)
    cfg, _, f, g1 = _start(oracle, x0, cfg, seed, rec)
    M = x0.manifold
    x = x0
    nf = 1
    eta = -g1
    eta_norm = norm(eta)
    row = rec.row(x, eta, g1.data, k=1, f=f, eta_norm=eta_norm,
                  gtilde_norm=norm(g1), nf_cum=nf)
    null_run = 0
    stop = "max_iters"

    for k in range(1, cfg.max_iters + 1):
        if eta_norm <= cfg.epsilon_stop:
            stop = "stationary"
            break
        # The search holds the ray: it and its memo are freed when the
        # search returns, before the next ``restrict``.
        try:
            res = line_search(oracle, x, eta, cfg.ls, f0=f, dir_norm=eta_norm,
                              trace=rec.entries)
        except LineSearchStallError as e:
            rec.hand_on(row)
            raise SolveStalledError(e, row.k, row.nf_cum) from e
        nf += res.evals
        row.t, row.null, row.width_stop = res.t, res.sign == 0, res.approximate
        rec.hand_on(row)
        # A collapsed bracket at tau_lo = 0 also leaves the iterate in place;
        # such zero steps count toward the consecutive-null stop.
        if res.t == 0.0:
            null_run += 1
        else:
            null_run = 0

        # Raw arrays at x_new from here on; a null step keeps x_new = x.
        # Each inner product is taken once: <d, d> and <gtilde, gtilde>
        # serve the direction update and the row's gtilde_norm.
        x_new, f_new = res.x_new, res.phi_at_t
        xd, ip = x_new.data, M._inner
        g_plus, g_minus = res.g_plus.data, res.g_minus.data
        d = M._carry(x.data, xd, eta.data)
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
        eta_data, alpha = direction_update(gtilde, d, ng2, nd2)

        x, f = x_new, f_new
        eta = _adopt(TangentVector, x, eta_data)
        eta_norm = M._norm(xd, eta_data)
        row = rec.row(x, eta, gtilde, k=k + 1, f=f, eta_norm=eta_norm,
                      gtilde_norm=math.sqrt(max(ng2, 0.0)), nf_cum=nf,
                      lam=lam, alpha=alpha, ortho=ortho_raw)

        if null_run >= cfg.max_null_steps:
            stop = "null_steps"
            break
        if eta_norm <= cfg.epsilon_stop:
            # After an edge stop (criterion 2's test: the search's upper
            # bound never left the injectivity clamp) the minimum along eta
            # was not bracketed, and removing gtilde's component along d
            # can zero a gtilde that is far from zero.
            edge = res.sign != 0 and res.tau_hi_final >= res.tau_hi_start
            stop = "edge_stop" if edge else "stationary"
            break

    rec.hand_on(row)
    return SolveResult(x=x, f=f, stop_reason=stop, iters=row.k - 1,
                       nf=nf, trajectory=rec.rows)


def subgradient_descent_solve(oracle, x0: ManifoldPoint,
                              cfg: SolverConfig | None = None,
                              seed: int = 0,
                              record: bool | Callable = False
                              ) -> SolveResult:
    """Riemannian subgradient descent with diminishing steps c / sqrt(k).

    Comparison baseline with the same trajectory schema as the conjugate
    solver; it carries no descent guarantee.  ``record`` works as for
    :func:`conjugate_subgradient_solve`, with each row keeping its point,
    direction and subgradient; it makes no line search, so a sink is
    handed None for the IRP entries.
    """
    rec = _Recorder(record, searches=False)
    cfg, rng, f, g = _start(oracle, x0, cfg, seed, rec)
    M = x0.manifold
    x = x0
    eta = -g
    ng = M._norm(x.data, g.data)
    c = 1.0 / (1.0 + ng)
    row = rec.row(x, eta, g.data, k=1, f=f, eta_norm=ng, gtilde_norm=ng,
                  nf_cum=1)
    stop = "max_iters"
    for k in range(1, cfg.max_iters + 1):
        if ng <= cfg.epsilon_stop:
            stop = "stationary"
            break
        t = c / math.sqrt(k)
        row.t = t
        rec.hand_on(row)
        x = _adopt(ManifoldPoint, M, M._retract(x.data, t * eta.data))
        f, g = oracle.value_and_subgrad(x, M.random_tangent(x, rng))
        eta = -g
        ng = M._norm(x.data, g.data)
        row = rec.row(x, eta, g.data, k=k + 1, f=f, eta_norm=ng,
                      gtilde_norm=ng, nf_cum=k + 1)
    rec.hand_on(row)
    return SolveResult(x=x, f=f, stop_reason=stop, iters=row.k - 1,
                       nf=row.k, trajectory=rec.rows)


# ---------------------------------------------------------------------------
# Trajectory verification: the paper's invariants, checked in one pass.
# ---------------------------------------------------------------------------

# f may rise by DESCENT_REL_TOL * (1 + |f|) between rows (round-off), and
# |<gtilde_k, T eta_{k-1}>| may reach ORTHO_SCALE_TOL * (||gtilde_k||
# ||eta_{k-1}|| + 1).
DESCENT_REL_TOL = 1e-12
ORTHO_SCALE_TOL = 1e-6
# ``bench check`` passes a run whose norm and direction residuals are at most
# these and whose finite inner products exceed ORTHO_SCALE_TOL on at most
# ORTHO_BAD_FRAC of the rows: bracket stops at the width tolerance or the
# injectivity clamp can leave a real residual.  A non-finite inner product
# fails the run outright.
NORM_RESIDUAL_MAX = 1e-6
ORTHO_BAD_FRAC = 0.01
FR_RESIDUAL_MAX = 1e-6


@dataclass(frozen=True)
class TrajectoryCheck:
    """The invariants of one trajectory, from :func:`check_trajectory`.

    ``descent_violations`` counts the rows whose f is not finite or rose
    beyond DESCENT_REL_TOL over the row before.  ``norm_residual`` is the
    max relative error of 1/||eta_k||^2 = sum_{j<=k} 1/||gtilde_j||^2, up to
    the first zero norm.  ``orthogonality`` is (violations, count) of the
    recorded inner products after the first row, the violations counting
    finite values only; ``ortho_nonfinite`` counts the NaN or infinite ones.
    ``fr_residual`` is the max relative residual of the Fletcher-Reeves
    replay, None when the rows keep no tangent vectors.  A NaN counts as a
    violation of each check it enters, as does a non-finite f, and a
    non-finite residual stays so.
    """

    descent_violations: int
    norm_residual: float
    orthogonality: tuple[int, int]
    ortho_nonfinite: int
    fr_residual: float | None

    def verdicts(self) -> list[tuple[str, bool]]:
        """``bench check``'s verdict lines, each with whether it failed."""
        n, (bad, total), nonfinite, fr = (
            self.descent_violations, self.orthogonality, self.ortho_nonfinite,
            self.fr_residual)
        return [
            _verdict("descent", n == 0, f"{n} increases" if n else ""),
            _verdict("norm recursion", self.norm_residual <= NORM_RESIDUAL_MAX,
                     f"max rel err {self.norm_residual:.3e}"),
            _verdict("orthogonality",
                     nonfinite == 0 and bad <= ORTHO_BAD_FRAC * total,
                     (f"{nonfinite} non-finite, " if nonfinite else "")
                     + f"{bad}/{total} beyond tolerance") if total else
            _verdict("orthogonality", None, "no recorded inner products"),
            _verdict("direction recursion", None, "trajectory lacks tangent "
                     "data; re-run with --trace") if fr is None else
            _verdict("direction recursion", fr <= FR_RESIDUAL_MAX,
                     f"max residual {fr:.3e}")]


def _verdict(name: str, ok: bool | None, detail: str) -> tuple[str, bool]:
    """A verdict line and whether it failed; ``ok`` None means skipped."""
    word = "skipped" if ok is None else "PASS" if ok else "FAIL"
    return f"{name}: {word}" + (f" ({detail})" if detail else ""), ok is False


def _worse(worst: float, r: float) -> float:
    """max(worst, r), except that a NaN on either side wins."""
    return r if r > worst or math.isnan(r) else worst


def _has_tangents(row: IterationRecord) -> bool:
    return not (row.x is None or row.eta is None or row.gtilde is None)


def check_trajectory(rows) -> TrajectoryCheck:
    """Check monotone descent, the norm recursion, orthogonality and the
    Fletcher-Reeves equivalence in one pass over ``rows``.

    ``rows`` is any iterable of :class:`IterationRecord`, such as a solve's
    trajectory or :func:`trajectory_from_jsonl` reading a file; the pass
    holds only the previous row, the running sum and eta^FR.  The replay
    eta_k^FR = -gtilde_k + (||gtilde_k||^2 / ||gtilde_{k-1}||^2)
    T(eta_{k-1}^FR) runs along the recorded points up to the first zero
    ||gtilde||, with residual
    ||  ||eta_k||^2 eta_k^FR - ||gtilde_k||^2 eta_k  ||
    / (||gtilde_k||^2 ||eta_k|| + 1e-300).

    ValueError when there are no rows, or when some keep their tangent
    vectors and others do not.  An infinite ``eta_norm``, or a norm whose
    square under- or overflows, raises ArithmeticError from the formulas.
    """
    descent = ortho_bad = ortho_nonfinite = ortho_total = 0
    norm_res, acc = 0.0, 0.0  # acc is None after the first zero norm
    fr = eta_fr = prev = None  # eta_fr is None once the replay has ended
    for row in rows:
        f, gn, en = row.f, row.gtilde_norm, row.eta_norm
        if prev is None:
            descent += not math.isfinite(f)
            tangents = _has_tangents(row)
            if tangents:
                fr, eta_fr = 0.0, -1.0 * row.gtilde
        else:
            if _has_tangents(row) != tangents:
                raise ValueError(f"k={row.k}: tangent data on some rows only")
            tol = DESCENT_REL_TOL * (1.0 + abs(prev.f))
            descent += not math.isfinite(f) or f > prev.f + tol
            if row.ortho is not None:
                ortho_total += 1
                if not math.isfinite(row.ortho):
                    ortho_nonfinite += 1
                else:
                    ortho_bad += not (abs(row.ortho) <= ORTHO_SCALE_TOL
                                      * (gn * prev.eta_norm + 1.0))
            if eta_fr is not None and prev.gtilde_norm == 0.0:
                eta_fr = None
            elif eta_fr is not None:
                carried = transport_between(prev.x, row.x, eta_fr)
                ratio = gn ** 2 / prev.gtilde_norm ** 2
                eta_fr = -1.0 * row.gtilde + ratio * carried
        if acc is not None and (gn == 0.0 or en == 0.0):
            acc = None
        elif acc is not None:
            acc += 1.0 / gn ** 2
            lhs = 1.0 / en ** 2
            norm_res = _worse(norm_res, abs(lhs - acc) / lhs)
        if eta_fr is not None:
            mismatch = (en ** 2) * eta_fr - (gn ** 2) * row.eta
            fr = _worse(fr, norm(mismatch) / (gn ** 2 * en + 1e-300))
        prev = row
    if prev is None:
        raise ValueError("no rows")
    return TrajectoryCheck(descent, norm_res, (ortho_bad, ortho_total),
                           ortho_nonfinite, fr)


# ---------------------------------------------------------------------------
# Trajectory (de)serialization: JSON lines, one record per iteration.
# ---------------------------------------------------------------------------

def trajectory_lines(trajectory: list[IterationRecord],
                     include_tangents: bool = False):
    """The JSON line of each row, without its newline, one at a time, so a
    writer can stream a trajectory; tangent data makes it replayable by
    :func:`check_trajectory`.  ``include_tangents`` needs rows of a solve
    run with ``record=True``: ValueError otherwise, before any line is
    produced."""
    if include_tangents and not all(map(_has_tangents, trajectory)):
        raise ValueError("include_tangents needs rows of a record=True solve")
    return (_row_line(row, include_tangents) for row in trajectory)


def _row_line(row: IterationRecord, include_tangents: bool) -> str:
    """The JSON line of one row; the serializer of every trajectory file,
    also of the rows a traced ``bench run`` cell writes as they come."""
    rec = {"k": row.k, "f": row.f, "eta_norm": row.eta_norm,
           "gtilde_norm": row.gtilde_norm, "t": row.t,
           "lambda": row.lam, "alpha": row.alpha, "null": row.null,
           "width_stop": row.width_stop, "nf_cum": row.nf_cum,
           "time_cum_s": row.time_cum_s}
    if row.ortho is not None:
        rec["ortho"] = row.ortho
    if include_tangents:
        rec["manifold"] = row.x.manifold.tag()
        rec["x"] = row.x.data.tolist()
        rec["eta"] = row.eta.data.tolist()
        rec["gtilde"] = row.gtilde.data.tolist()
    return json.dumps(rec)


def trajectory_from_jsonl(lines):
    """Parse trajectory rows from JSON lines, one row at a time.

    ``lines`` is any iterable of strings, such as an open file, so a file of
    any length is read in O(1) rows.  Lines written without tangent data give
    rows whose ``x``, ``eta`` and ``gtilde`` are None.  Tangent data is
    validated as it is read: ValueError for a point that is not on its
    manifold (shape, finiteness, membership) and for an ``eta`` or
    ``gtilde`` that is not tangent at it.
    """
    for line in lines:
        if not line.strip():
            continue
        rec = json.loads(line)
        x = eta = gtilde = None
        if "x" in rec and "manifold" in rec:
            x = Manifold.from_tag(rec["manifold"]).point(rec["x"])
            eta = TangentVector(x, rec["eta"])
            gtilde = TangentVector(x, rec["gtilde"])
            if not all(v.data.shape == x.data.shape and check_tangent(v)
                       for v in (eta, gtilde)):
                raise ValueError("eta and gtilde must be tangent at x")
        yield IterationRecord(
            k=rec["k"], x=x, f=rec["f"], eta=eta, gtilde=gtilde,
            eta_norm=rec["eta_norm"], gtilde_norm=rec["gtilde_norm"],
            nf_cum=rec["nf_cum"], time_cum_s=rec["time_cum_s"],
            t=rec.get("t"), null=bool(rec.get("null", False)),
            width_stop=bool(rec.get("width_stop", False)),
            lam=rec.get("lambda"), alpha=rec.get("alpha"),
            ortho=rec.get("ortho"))
