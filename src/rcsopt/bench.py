"""Benchmark harness: suites, adjudication, and Dolan-More profiles.

A suite runs one problem family over a grid of sizes with several random
instances per size, solving each instance with every configured solver.  A
solver counts as having solved a problem when its final value f satisfies
0 <= (f - f_opt) / (|f_opt| + 1) <= 1e-7, where f_opt is the best final value
any solver reached on that instance.  Performance profiles are the usual
cumulative distributions of per-problem time ratios.
"""

from __future__ import annotations

import csv
import io
import json
import math
import time
from bisect import bisect_left, bisect_right
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .manifolds import SPD, ManifoldPoint, Sphere
from .objectives import KINDS, generate_instance
from .solver import (SolveResult, SolverConfig, SolveStalledError, _is_int,
                     _row_line, conjugate_subgradient_solve,
                     subgradient_descent_solve)
from .linesearch import LineSearchConfig, irp_records

SOLVED_REL_TOL = 1e-7
_TIME_FLOOR = 1e-9  # guards ratio computation against zero clock readings
PROFILE_GRID_POINTS = 50  # geometric tau grid shared by every profile curve


class EmptySuiteError(ValueError):
    """Suite or record set contains no problems."""


SOLVERS = {
    "conjugate_subgradient": conjugate_subgradient_solve,
    "subgradient": subgradient_descent_solve,
}


def solver_config_from_dict(obj: dict | None) -> SolverConfig:
    obj = dict(obj or {})
    ls = LineSearchConfig(**obj.pop("ls", {}))
    return SolverConfig(ls=ls, **obj)


@dataclass(frozen=True)
class SuiteSpec:
    kind: str
    sizes: tuple[tuple[int, int], ...]
    runs: int = 10
    base_seed: int = 0
    solvers: tuple[str, ...] = ("conjugate_subgradient", "subgradient")
    solver_configs: dict = field(default_factory=dict)
    # Every named solver's built SolverConfig, by solver name.
    configs: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown problem kind {self.kind!r}")
        for name in ("runs", "base_seed"):
            if not _is_int(getattr(self, name)):
                raise ValueError(f"{name} must be an integer, got "
                                 f"{getattr(self, name)!r}")
        if not isinstance(self.sizes, (list, tuple)):
            raise ValueError(f"sizes must be a list of (n, m) pairs, got "
                             f"{self.sizes!r}")
        if not self.sizes or self.runs < 1:
            raise EmptySuiteError("suite needs at least one size and one run")
        for sz in self.sizes:
            if not isinstance(sz, (list, tuple)) or len(sz) != 2 \
                    or not all(_is_int(d) and d >= 1 for d in sz):
                raise ValueError(f"suite size {sz!r} is not a pair "
                                 f"(n, m) of integers >= 1")
        if self.base_seed < 0:
            raise ValueError(f"base_seed must be >= 0, got {self.base_seed}")
        if not isinstance(self.solvers, (list, tuple)) \
                or not all(isinstance(name, str) for name in self.solvers):
            raise ValueError(f"solvers must be a list of solver names, got "
                             f"{self.solvers!r}")
        if not self.solvers:
            raise EmptySuiteError("suite needs at least one solver")
        for i, name in enumerate(self.solvers):
            if name in self.solvers[:i]:
                raise ValueError(f"solver {name!r} is named twice in solvers")
        if not isinstance(self.solver_configs, dict) or not all(
                isinstance(c, dict) for c in self.solver_configs.values()):
            raise ValueError(f"solver_configs must map solver names to "
                             f"objects, got {self.solver_configs!r}")
        configs = {}
        for name in (*self.solvers, *self.solver_configs):
            if name not in SOLVERS:
                raise ValueError(f"unknown solver {name!r}")
            try:
                configs[name] = solver_config_from_dict(
                    self.solver_configs.get(name))
            except (TypeError, ValueError) as e:
                raise ValueError(f"solver_configs[{name!r}]: {e}") from e
        object.__setattr__(self, "configs", configs)
        object.__setattr__(self, "sizes", tuple(tuple(sz) for sz in self.sizes))
        object.__setattr__(self, "solvers", tuple(self.solvers))

    @staticmethod
    def from_json(text: str) -> "SuiteSpec":
        """The spec of a JSON object with the field names; absent fields
        take the defaults above."""
        obj = json.loads(text)
        if not isinstance(obj, dict):
            raise ValueError(f"a suite must be a JSON object, got "
                             f"{type(obj).__name__}")
        return SuiteSpec(**obj)

    def to_json(self) -> str:
        return json.dumps({
            "kind": self.kind, "sizes": [list(s) for s in self.sizes],
            "runs": self.runs, "base_seed": self.base_seed,
            "solvers": list(self.solvers),
            "solver_configs": self.solver_configs})


@dataclass
class BenchmarkRecord:
    problem: str
    solver: str
    seed: int
    iters: int
    nf: int
    wall_time_s: float
    final_f: float
    solved: bool | None = None
    error: str | None = None
    stop_reason: str | None = None  # the solve's; None on error rows


@dataclass
class ProfileCurve:
    solver: str
    ratios: np.ndarray   # one ratio per problem, +inf when unsolved
    taus: np.ndarray
    rhos: np.ndarray

    def rho_at(self, tau: float) -> float:
        return float(np.mean(self.ratios <= tau))


def problem_id(kind: str, n: int, m: int, seed: int) -> str:
    return f"{kind}-n{n}-m{m}-s{seed}"


def initial_point(kind: str, n: int, seed: int) -> ManifoldPoint:
    """Deterministic random start, shared by every solver on an instance."""
    if kind not in KINDS:
        raise ValueError(f"unknown problem kind {kind!r}")
    rng = np.random.default_rng([seed, 1])
    if kind == "karcher":
        return SPD(n).random_point(rng)
    return Sphere(n + 1).random_point(rng)


def adjudicate(records: list[BenchmarkRecord]) -> float:
    """Set the solved flags for one problem's records; returns f_opt.

    f_opt is the best finite final value (inf when there is none); a record
    with a non-finite final value never counts as solved.
    """
    if not records:
        raise EmptySuiteError("no records to adjudicate")
    f_opt = min((r.final_f for r in records if math.isfinite(r.final_f)),
                default=math.inf)
    for r in records:
        r.solved = bool(r.error is None and math.isfinite(r.final_f)
                        and 0.0 <= (r.final_f - f_opt) / (abs(f_opt) + 1.0)
                        <= SOLVED_REL_TOL)
    return f_opt


def adjudicate_all(records: list[BenchmarkRecord]) -> dict[str, float]:
    by_problem: dict[str, list[BenchmarkRecord]] = {}
    for r in records:
        by_problem.setdefault(r.problem, []).append(r)
    return {p: adjudicate(rs) for p, rs in by_problem.items()}


def performance_profile(records: list[BenchmarkRecord]) -> list[ProfileCurve]:
    """Dolan-More curves rho_s(tau) from adjudicated records.

    Each curve's taus are the sorted distinct values of a PROFILE_GRID_POINTS
    geometric grid from 1 to the largest finite ratio of any solver, and of
    the solver's own finite ratios; rho_s(tau) is the share of problems
    whose ratio is <= tau, counted by bisection in the solver's sorted
    ratios.  The work is plain Python lists: ``np.unique`` would load
    ``numpy.ma`` and ``np.sort`` numpy's sort kernels, which grow a bench
    run's peak RSS for a few dozen numbers.

    ValueError naming the record when a wall time is not finite and >= 0,
    and naming both records (counted from 1) when two have the same
    (problem, solver) pair.
    """
    if not records:
        raise EmptySuiteError("no records to profile")
    first = {}
    for i, r in enumerate(records, 1):
        _check_time(r.wall_time_s, f"record {r.problem} {r.solver}")
        j = first.setdefault((r.problem, r.solver), i)
        if j != i:
            raise ValueError(f"records {j} and {i} are both for problem "
                             f"{r.problem!r} with solver {r.solver!r}")
    if any(r.solved is None for r in records):
        adjudicate_all(records)
    problems = sorted({r.problem for r in records})
    solvers = sorted({r.solver for r in records})
    times = {(r.problem, r.solver): max(r.wall_time_s, _TIME_FLOOR)
             for r in records}
    solved = {(r.problem, r.solver): r.solved for r in records}

    ratios = {s: [] for s in solvers}
    for p in problems:
        best = min((times[(p, s)] for s in solvers
                    if solved.get((p, s), False)), default=math.inf)
        for s in solvers:
            key = (p, s)
            ratios[s].append(times[key] / best
                             if solved.get(key, False) and math.isfinite(best)
                             else math.inf)

    tau_max = max((q for rs in ratios.values() for q in rs if q < math.inf),
                  default=1.0)
    grid = np.geomspace(1.0, max(tau_max, 1.0 + 1e-12),
                        PROFILE_GRID_POINTS).tolist()
    curves = []
    for s in solvers:
        ranked = sorted(ratios[s])
        merged = sorted(grid + ranked[:bisect_left(ranked, math.inf)])
        taus = [t for i, t in enumerate(merged) if i == 0 or t != merged[i - 1]]
        rhos = [bisect_right(ranked, t) / len(problems) for t in taus]
        curves.append(ProfileCurve(s, np.array(ratios[s]), np.array(taus),
                                   np.array(rhos)))
    return curves


def _check_time(wall_time_s: float, where: str) -> None:
    # Written so that a NaN fails the check.
    if not 0.0 <= wall_time_s < math.inf:
        raise ValueError(f"{where}: wall_time_s must be finite and >= 0, "
                         f"got {wall_time_s!r}")


# Rows a traced cell holds before it writes them: serializing after every
# iteration leaves the solve's working set cold in the caches, which made a
# traced rayleigh 5x200 conjugate subgradient iteration about 9% slower.
_TRACE_BATCH_ROWS = 32


class _TraceFiles:
    """The sink of a traced cell.  Each row it is handed becomes a line of
    ``traj_<name>`` (with tangents), and each IRP entry of the row's line
    search (one per trial) a line of ``irp_<name>``, its ``irp_records``
    dict.  Rows are written _TRACE_BATCH_ROWS at a time, and the rest
    by ``close``.  A file is opened at its first line, the IRP file at the
    first entries handed on (a conjugate subgradient row hands on a list,
    possibly empty; a subgradient row None).  ``close`` returns the seconds
    spent writing, which the cell's wall time leaves out."""

    def __init__(self, trace_dir: Path, name: str):
        self.trace_dir, self.name = trace_dir, name
        self.traj = self.irp = None
        self.batch = []
        self.spent = 0.0

    def __call__(self, row, entries) -> None:
        self.batch.append((row, entries))
        if len(self.batch) == _TRACE_BATCH_ROWS:
            self._write()

    def _write(self) -> None:
        t = time.perf_counter()
        for row, entries in self.batch:
            self.traj = self.traj or self._open("traj")
            self.traj.write(_row_line(row, True) + "\n")
            if entries is not None:
                self.irp = self.irp or self._open("irp")
                self.irp.writelines(json.dumps(rec) + "\n"
                                    for rec in irp_records(entries))
        self.batch.clear()
        self.spent += time.perf_counter() - t

    def _open(self, kind: str):
        return (self.trace_dir / f"{kind}_{self.name}").open("w")

    def close(self) -> float:
        """Write the rows still held and close the files; returns the
        seconds spent writing, the closing included."""
        self._write()
        t = time.perf_counter()
        for fh in (self.traj, self.irp):
            if fh is not None:
                fh.close()
        return self.spent + time.perf_counter() - t


def _run_cell(kind: str, n: int, m: int, seed: int, solver_name: str,
              cfg: SolverConfig, trace_dir: Path | None) -> BenchmarkRecord:
    """Solve one (instance, solver) cell; timing excludes generation.

    A ``ValueError`` or ``ArithmeticError`` from the solve becomes an error
    row (``final_f`` inf, no iterations); a stalled line search becomes an
    error row with the iterations and evaluations made before it.  With
    ``trace_dir`` set, the solve's ``record`` is a sink that writes the
    rows, with tangents, to ``traj_<problem>_<solver>.jsonl`` there while
    the solve runs, and a conjugate subgradient cell each line search's
    trials to ``irp_<problem>_<solver>.jsonl`` (see :class:`_TraceFiles`).
    The cell holds at most _TRACE_BATCH_ROWS rows, its wall time leaves the
    writing out, and a cell that fails keeps every row finished before the
    failure.  An untraced cell passes the solver no ``record`` keyword and
    keeps only scalar rows.
    """
    oracle = generate_instance(kind, n, m, seed)
    x0 = initial_point(kind, n, seed)
    solve = SOLVERS[solver_name]
    pid = problem_id(kind, n, m, seed)
    files = None if trace_dir is None else _TraceFiles(
        trace_dir, f"{pid}_{solver_name}.jsonl")
    kwargs = {} if files is None else {"record": files}
    rec = BenchmarkRecord(problem=pid, solver=solver_name, seed=seed,
                          iters=0, nf=0, wall_time_s=0.0, final_f=math.inf)
    spent = 0.0
    t0 = time.perf_counter()
    try:
        result: SolveResult = solve(oracle, x0, cfg, seed=seed, **kwargs)
    except SolveStalledError as e:
        rec.iters, rec.nf, rec.error = e.rows - 1, e.nf, str(e)
    except (ValueError, ArithmeticError) as e:
        rec.error = f"{type(e).__name__}: {e}"
    else:
        rec.iters, rec.nf, rec.final_f = result.iters, result.nf, result.f
        rec.stop_reason = result.stop_reason
    finally:
        if files is not None:
            spent = files.close()
    rec.wall_time_s = time.perf_counter() - t0 - spent
    return rec


@dataclass
class SuiteResult:
    spec: SuiteSpec
    records: list[BenchmarkRecord]
    profiles: list[ProfileCurve]
    summary: list[dict]
    f_opt: dict[str, float]


def run_suite(spec: SuiteSpec, jobs: int = 1,
              trace_dir: Path | None = None) -> SuiteResult:
    """Run every (size, run, solver) cell of the suite deterministically.

    Instance seeds are base_seed + running index over (size, run) pairs, so
    reruns reproduce iterates and values bit for bit; wall times differ.
    With ``trace_dir`` (an existing directory) each cell writes its trace
    files there as it finishes; see ``_run_cell``.  ``jobs`` (``ValueError``
    below 1) and ``trace_dir`` (``ValueError`` unless it is a directory) are
    checked before the first cell runs; the spec checked its solver configs
    when it was made.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if trace_dir is not None and not trace_dir.is_dir():
        raise ValueError(f"trace_dir must be an existing directory, "
                         f"got {str(trace_dir)!r}")
    cells = []
    for si, (n, m) in enumerate(spec.sizes):
        for run in range(spec.runs):
            seed = spec.base_seed + si * spec.runs + run
            for solver_name in spec.solvers:
                cells.append((spec.kind, n, m, seed, solver_name,
                              spec.configs[solver_name], trace_dir))

    if jobs > 1:
        # Imported here: it pulls in multiprocessing, which a serial run
        # (and a plain ``import rcsopt``) does not need.
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            records = list(pool.map(_run_cell, *zip(*cells)))
    else:
        records = [_run_cell(*c) for c in cells]

    f_opt = adjudicate_all(records)
    profiles = performance_profile(records)
    summary = summarize(spec, records)
    return SuiteResult(spec=spec, records=records, profiles=profiles,
                       summary=summary, f_opt=f_opt)


def summarize(spec: SuiteSpec, records: list[BenchmarkRecord]) -> list[dict]:
    """Per-(size, solver) arithmetic means, one dict per table row."""
    rows = []
    for n, m in spec.sizes:
        prefix = f"{spec.kind}-n{n}-m{m}-"
        for solver_name in spec.solvers:
            cell = [r for r in records
                    if r.solver == solver_name and r.problem.startswith(prefix)]
            if not cell:
                continue
            rows.append({
                "kind": spec.kind, "n": n, "m": m, "solver": solver_name,
                "runs": len(cell),
                "mean_iters": float(np.mean([r.iters for r in cell])),
                "mean_nf": float(np.mean([r.nf for r in cell])),
                "mean_time_s": float(np.mean([r.wall_time_s for r in cell])),
                "mean_final_f": float(np.mean([r.final_f for r in cell])),
                "solved": sum(bool(r.solved) for r in cell)})
    return rows


# ---------------------------------------------------------------------------
# Persistence: dot-decimal CSV with a header row, plus a JSON summary.
# ---------------------------------------------------------------------------

_RECORD_FIELDS = ("problem", "solver", "seed", "iters", "nf", "wall_time_s",
                  "final_f", "solved", "error", "stop_reason")
_SOLVED = {"true": True, "false": False, "": None}


def records_to_csv(records: list[BenchmarkRecord]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(_RECORD_FIELDS)
    for r in records:
        w.writerow([r.problem, r.solver, r.seed, r.iters, r.nf,
                    repr(r.wall_time_s), repr(r.final_f),
                    "" if r.solved is None else str(r.solved).lower(),
                    r.error or "", r.stop_reason or ""])
    return buf.getvalue()


def _csv_number(row: list[str], i: int, j: int, kind: type):
    """Field j of data row i (counted from 1 with the header) as ``kind``;
    a ValueError names the row and the field."""
    try:
        return kind(row[j])
    except ValueError:
        raise ValueError(f"row {i}: {_RECORD_FIELDS[j]} must be "
                         f"{'an integer' if kind is int else 'a number'}, "
                         f"got {row[j]!r}") from None


def records_from_csv(text: str) -> list[BenchmarkRecord]:
    """The records of ``records_to_csv`` text; ValueError for another
    header, and naming the row for a short row, a non-numeric seed, iters,
    nf, wall_time_s or final_f, a wall time that is not finite and >= 0, or
    a ``solved`` other than true, false or empty, or a row the csv module
    rejects (such as a field over its size limit)."""
    rows = []
    try:
        for row in csv.reader(io.StringIO(text)):
            rows.append(row)
    except csv.Error as e:
        raise ValueError(f"row {len(rows) + 1}: {e}") from None
    if not rows or tuple(rows[0]) != _RECORD_FIELDS:
        raise ValueError("unrecognized records CSV header")
    out = []
    for i, row in enumerate(rows[1:], start=2):
        if not row:
            continue
        if len(row) != len(_RECORD_FIELDS):
            raise ValueError(f"row {i} has {len(row)} of the "
                             f"{len(_RECORD_FIELDS)} fields")
        seed, iters, nf = (_csv_number(row, i, j, int) for j in (2, 3, 4))
        wall_time_s, final_f = (_csv_number(row, i, j, float) for j in (5, 6))
        _check_time(wall_time_s, f"row {i}")
        if row[7] not in _SOLVED:
            raise ValueError(f"row {i}: solved must be true, false or "
                             f"empty, got {row[7]!r}")
        out.append(BenchmarkRecord(
            problem=row[0], solver=row[1], seed=seed, iters=iters, nf=nf,
            wall_time_s=wall_time_s, final_f=final_f,
            solved=_SOLVED[row[7]],
            error=row[8] or None, stop_reason=row[9] or None))
    return out


def profiles_to_csv(curves: list[ProfileCurve]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(("solver", "tau", "rho"))
    for c in curves:
        for tau, rho in zip(c.taus, c.rhos):
            w.writerow([c.solver, repr(float(tau)), repr(float(rho))])
    return buf.getvalue()
