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
import numbers
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .manifolds import SPD, ManifoldPoint, Sphere
from .objectives import KINDS, generate_instance
from .solver import (SolveResult, SolverConfig, SolveStalledError,
                     conjugate_subgradient_solve, subgradient_descent_solve,
                     trajectory_lines)
from .linesearch import LineSearchConfig, irp_records

SOLVED_REL_TOL = 1e-7
_TIME_FLOOR = 1e-9  # guards ratio computation against zero clock readings


class EmptySuiteError(ValueError):
    """Suite or record set contains no problems."""


SOLVERS = {
    "conjugate_subgradient": conjugate_subgradient_solve,
    "subgradient": subgradient_descent_solve,
}


def _is_int(v) -> bool:
    return isinstance(v, numbers.Integral) and not isinstance(v, bool)


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
        if not isinstance(self.solvers, (list, tuple)):
            raise ValueError(f"solvers must be a list of solver names, got "
                             f"{self.solvers!r}")
        if not self.solvers:
            raise EmptySuiteError("suite needs at least one solver")
        for s in self.solvers:
            if s not in SOLVERS:
                raise ValueError(f"unknown solver {s!r}")
        if not isinstance(self.solver_configs, dict) or not all(
                isinstance(c, dict) for c in self.solver_configs.values()):
            raise ValueError(f"solver_configs must map solver names to "
                             f"objects, got {self.solver_configs!r}")
        object.__setattr__(self, "sizes", tuple(tuple(sz) for sz in self.sizes))
        object.__setattr__(self, "solvers", tuple(self.solvers))

    @staticmethod
    def from_json(text: str) -> "SuiteSpec":
        """The spec of a JSON object with the field names; absent fields
        take the defaults above."""
        return SuiteSpec(**json.loads(text))

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


def performance_profile(records: list[BenchmarkRecord],
                        n_grid: int = 50) -> list[ProfileCurve]:
    """Dolan-More curves rho_s(tau) from adjudicated records."""
    if not records:
        raise EmptySuiteError("no records to profile")
    if any(r.solved is None for r in records):
        adjudicate_all(records)
    problems = sorted({r.problem for r in records})
    solvers = sorted({r.solver for r in records})
    times = {(r.problem, r.solver): max(r.wall_time_s, _TIME_FLOOR)
             for r in records}
    solved = {(r.problem, r.solver): r.solved for r in records}

    ratios = {s: np.empty(len(problems)) for s in solvers}
    for i, p in enumerate(problems):
        best = min((times[(p, s)] for s in solvers
                    if solved.get((p, s), False)), default=math.inf)
        for s in solvers:
            key = (p, s)
            if solved.get(key, False) and math.isfinite(best):
                ratios[s][i] = times[key] / best
            else:
                ratios[s][i] = math.inf

    finite = np.concatenate([r[np.isfinite(r)] for r in ratios.values()]) \
        if any(np.isfinite(r).any() for r in ratios.values()) else np.array([1.0])
    tau_max = max(float(finite.max()), 1.0 + 1e-12)
    grid = np.geomspace(1.0, tau_max, n_grid)
    curves = []
    for s in solvers:
        breakpoints = np.unique(ratios[s][np.isfinite(ratios[s])])
        taus = np.unique(np.concatenate([grid, breakpoints]))
        rhos = np.array([np.mean(ratios[s] <= t) for t in taus])
        curves.append(ProfileCurve(s, ratios[s], taus, rhos))
    return curves


def _suite_configs(spec: SuiteSpec) -> dict[str, SolverConfig]:
    """Every solver's built config; ValueError naming a bad solver or field."""
    configs = {}
    for name in (*spec.solvers, *spec.solver_configs):
        if name not in SOLVERS:
            raise ValueError(f"solver_configs names unknown solver {name!r}")
        try:
            configs[name] = solver_config_from_dict(
                spec.solver_configs.get(name))
        except (TypeError, ValueError) as e:
            raise ValueError(f"solver_configs[{name!r}]: {e}") from e
    return configs


def _run_cell(kind: str, n: int, m: int, seed: int, solver_name: str,
              cfg: SolverConfig, trace_dir: Path | None) -> BenchmarkRecord:
    """Solve one (instance, solver) cell; timing excludes generation.

    A ``ValueError`` or ``ArithmeticError`` from the solve becomes an error
    row (``final_f`` inf, no iterations).  With ``trace_dir`` set, the cell
    solves with ``record=True``, and if it finished it writes
    ``traj_<problem>_<solver>.jsonl`` (with tangents) there, plus
    ``irp_<problem>_<solver>.jsonl`` when the result has an IRP trace (one
    JSON object per interval-reduction trial, from ``irp_records``).  Both
    files are written line by line from the cell's rows and compact
    line-search trace, never held as one string.  An untraced cell passes
    the solver no ``record`` keyword and keeps only scalar rows.
    """
    oracle = generate_instance(kind, n, m, seed)
    x0 = initial_point(kind, n, seed)
    solve = SOLVERS[solver_name]
    pid = problem_id(kind, n, m, seed)
    kwargs = {} if trace_dir is None else {"record": True}
    rec = BenchmarkRecord(problem=pid, solver=solver_name, seed=seed,
                          iters=0, nf=0, wall_time_s=0.0, final_f=math.inf)
    t0 = time.perf_counter()
    try:
        result: SolveResult = solve(oracle, x0, cfg, seed=seed, **kwargs)
    except SolveStalledError as e:
        rec.iters = max(len(e.trajectory) - 1, 0)
        nf = e.trajectory[-1].nf_cum if e.trajectory else 0
        rec.nf, rec.error = max(nf, rec.iters), str(e)
    except (ValueError, ArithmeticError) as e:
        rec.error = f"{type(e).__name__}: {e}"
    else:
        rec.iters, rec.nf, rec.final_f = result.iters, result.nf, result.f
    rec.wall_time_s = time.perf_counter() - t0
    if trace_dir is not None and rec.error is None:
        name = f"{pid}_{solver_name}.jsonl"
        _write_lines(trace_dir / f"traj_{name}",
                     trajectory_lines(result.trajectory,
                                      include_tangents=True))
        if result.irp_trace is not None:
            _write_lines(trace_dir / f"irp_{name}",
                         map(json.dumps, irp_records(result.irp_trace)))
    return rec


def _write_lines(path: Path, lines) -> None:
    """Write each line of an iterable, plus a newline, as it is produced."""
    with path.open("w") as fh:
        fh.writelines(line + "\n" for line in lines)


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
    files there as it finishes; see ``_run_cell``.  Solver configs are
    checked before the first cell runs, and so is ``jobs`` (``ValueError``
    below 1).
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    configs = _suite_configs(spec)
    cells = []
    for si, (n, m) in enumerate(spec.sizes):
        for run in range(spec.runs):
            seed = spec.base_seed + si * spec.runs + run
            for solver_name in spec.solvers:
                cells.append((spec.kind, n, m, seed, solver_name,
                              configs[solver_name], trace_dir))

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
                  "final_f", "solved", "error")


def records_to_csv(records: list[BenchmarkRecord]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(_RECORD_FIELDS)
    for r in records:
        w.writerow([r.problem, r.solver, r.seed, r.iters, r.nf,
                    repr(r.wall_time_s), repr(r.final_f),
                    "" if r.solved is None else str(r.solved).lower(),
                    r.error or ""])
    return buf.getvalue()


def records_from_csv(text: str) -> list[BenchmarkRecord]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != _RECORD_FIELDS:
        raise ValueError("unrecognized records CSV header")
    out = []
    for row in rows[1:]:
        if not row:
            continue
        out.append(BenchmarkRecord(
            problem=row[0], solver=row[1], seed=int(row[2]), iters=int(row[3]),
            nf=int(row[4]), wall_time_s=float(row[5]), final_f=float(row[6]),
            solved=None if row[7] == "" else row[7] == "true",
            error=row[8] or None))
    return out


def profiles_to_csv(curves: list[ProfileCurve]) -> str:
    buf = io.StringIO()
    w = csv.writer(buf)
    w.writerow(("solver", "tau", "rho"))
    for c in curves:
        for tau, rho in zip(c.taus, c.rhos):
            w.writerow([c.solver, repr(float(tau)), repr(float(rho))])
    return buf.getvalue()
