"""Span recording from outside the package, for the traced benchmark run.

Hooks wrap public functions of the ``rcsopt`` modules (and a proxy wraps the
oracle handed to the solver), so every call into a layer becomes one span:
name, start, end, parent span and the solve it belongs to.  Spans live in
flat arrays while the run goes on and are written out once at the end.
A layer's self time is its spans' durations minus the time their direct
child spans cover; calls are sequential, so that is a plain subtraction.

Nothing here runs unless a traced run installs it; the untraced run calls
the package directly.
"""

from __future__ import annotations

import contextlib
import sys
import types
from array import array
from collections import Counter
from time import perf_counter

import numpy as np

# Geometry primitives whose calls are timed wherever a module imported them.
MANIFOLD_FUNCS = ("retract", "transport_between", "inner", "norm",
                  "same_point")
ORACLE_METHODS = ("value", "dir_deriv", "active_subgrad")


class Tracer:
    """In-memory span store plus plain counters."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("i")
        self.parent = array("q")
        self.solve = array("q")
        self.start = array("d")
        self.end = array("d")
        self.counts: Counter = Counter()
        self.absent: set[str] = set()
        self._stack: list[int] = []
        self._solve = -1

    def _intern(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def wrap(self, name: str, fn, root: bool = False):
        """``fn`` with each call recorded as a span; ``root`` marks a solve."""
        nid = self._intern(name)
        stack, name_id, parent = self._stack, self.name_id, self.parent
        solve, start, end = self.solve, self.start, self.end

        def spanned(*args, **kwargs):
            idx = len(start)
            name_id.append(nid)
            parent.append(stack[-1] if stack else -1)
            if root:
                outer, self._solve = self._solve, idx
            solve.append(self._solve)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                return fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
                if root:
                    self._solve = outer

        spanned.__wrapped__ = fn
        return spanned

    def arrays(self):
        """(names, name_id, parent, solve, duration) as numpy arrays."""
        return (self.names, np.frombuffer(self.name_id, dtype=np.int32),
                np.frombuffer(self.parent, dtype=np.int64),
                np.frombuffer(self.solve, dtype=np.int64),
                np.frombuffer(self.end) - np.frombuffer(self.start))

    def save(self, path) -> None:
        names, nid, parent, solve, _ = self.arrays()
        np.savez(path, names=np.array(names), name_id=nid, parent=parent,
                 solve=solve, start=np.frombuffer(self.start),
                 end=np.frombuffer(self.end))


def self_times(parent: np.ndarray, dur: np.ndarray) -> np.ndarray:
    """Each span's duration minus the summed durations of its children."""
    has = parent >= 0
    child = np.bincount(parent[has], weights=dur[has], minlength=len(dur))
    return dur - child


def span_totals(tracer: Tracer, solves_only: bool = True) -> dict:
    """name -> (calls, self seconds, durations) over the recorded spans.

    With ``solves_only`` only spans inside a solve span count, so replays
    done by ``bench check`` do not leak into the solver layers.
    """
    names, nid, parent, solve, dur = tracer.arrays()
    if len(dur) == 0:
        return {}
    selft = self_times(parent, dur)
    keep = solve >= 0 if solves_only else np.ones(len(dur), bool)
    out = {}
    for i, name in enumerate(names):
        mask = keep & (nid == i)
        if mask.any():
            out[name] = (int(mask.sum()), float(selft[mask].sum()), dur[mask])
    return out


class TimedOracle:
    """Oracle proxy timing value / dir_deriv / active_subgrad as spans.

    It also counts calls made at a point the same solve already queried
    (any method), which is the share a per-point memo could skip.  One proxy
    serves one solve.
    """

    def __init__(self, oracle, tracer: Tracer):
        self._oracle = oracle
        self._seen: set[bytes] = set()
        for meth in ORACLE_METHODS:
            fn = getattr(oracle, meth, None)
            if fn is None:
                tracer.absent.add(f"objectives.{meth}")
                continue
            setattr(self, meth,
                    self._count_repeats(tracer,
                                        tracer.wrap(f"objectives.{meth}", fn)))

    def _count_repeats(self, tracer: Tracer, fn):
        seen, counts = self._seen, tracer.counts

        def call(x, *args):
            key = x.data.tobytes()
            counts["objectives.calls"] += 1
            if key in seen:
                counts["objectives.repeat_calls"] += 1
            else:
                seen.add(key)
            return fn(x, *args)

        return call

    def __getattr__(self, name):
        return getattr(self._oracle, name)


def _row_bytes(row) -> int:
    arrays = {}
    for attr in ("x", "eta", "gtilde", "g_plus", "g_minus", "d"):
        data = getattr(getattr(row, attr, None), "data", None)
        if isinstance(data, np.ndarray):
            arrays[id(data)] = data.nbytes
    return sum(arrays.values())


def record_solve(tracer: Tracer, result) -> None:
    """Tally iterations and the array bytes the trajectory rows hold."""
    rows = getattr(result, "trajectory", None) or []
    tracer.counts["solver.solves"] += 1
    tracer.counts["solver.iters"] += int(result.iters)
    tracer.counts["solver.rows"] += len(rows)
    tracer.counts["solver.row_bytes"] += sum(_row_bytes(r) for r in rows)


def _linesearch_hook(tracer: Tracer, fn):
    spanned = tracer.wrap("linesearch.line_search", fn)
    counts = tracer.counts

    def call(*args, **kwargs):
        try:
            res = spanned(*args, **kwargs)
        except Exception as exc:
            if type(exc).__name__ == "LineSearchStallError":
                counts["linesearch.stalls"] += 1
            raise
        evals = int(getattr(res, "evals", 0))
        counts["linesearch.evals"] += evals
        if res.t == 0.0:
            counts["linesearch.zero_steps"] += 1
            counts["linesearch.zero_step_evals"] += evals
        if getattr(res, "approximate", False):
            counts["linesearch.width_stops"] += 1
        return res

    return call


def solve_hook(tracer: Tracer, fn):
    """A solver entry point recorded as a solve span plus its tallies."""
    spanned = tracer.wrap("solver.solve", fn, root=True)

    def call(*args, **kwargs):
        res = spanned(*args, **kwargs)
        record_solve(tracer, res)
        return res

    return call


def _package_modules():
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == "rcsopt" or name.startswith("rcsopt."))]


@contextlib.contextmanager
def installed(tracer: Tracer, pkg, oracle_factory=None):
    """Install the span hooks on the package ``pkg`` for the block.

    The hooked functions are looked up on ``pkg.manifolds``,
    ``pkg.linesearch``, ``pkg.solver`` and ``pkg.bench``.  Every package
    module attribute that is one of them is swapped for its wrapper, so call
    sites that imported the name directly are covered too.  A hook whose
    target no longer exists is skipped and its metrics are reported absent.
    ``oracle_factory``, when given, is patched over
    ``bench.generate_instance`` so suite cells get timed oracles.
    """
    def module(name):
        return getattr(pkg, name, None) or types.SimpleNamespace()

    targets = []   # (original function, replacement)
    man = module("manifolds")
    for name in MANIFOLD_FUNCS:
        fn = getattr(man, name, None)
        if fn is None:
            tracer.absent.add(f"manifolds.{name}")
            continue
        targets.append((fn, tracer.wrap(f"manifolds.{name}", fn)))
    ls = getattr(module("linesearch"), "line_search", None)
    if ls is None:
        tracer.absent.add("linesearch")
    else:
        targets.append((ls, _linesearch_hook(tracer, ls)))
    du = getattr(module("solver"), "direction_update", None)
    if du is None:
        tracer.absent.add("solver.direction_update")
    else:
        targets.append((du, tracer.wrap("solver.direction_update", du)))

    bench = module("bench")
    rs = getattr(bench, "run_suite", None)
    if rs is None:
        tracer.absent.add("bench.run_suite")
    else:
        targets.append((rs, tracer.wrap("bench.run_suite", rs)))
    solvers = getattr(bench, "SOLVERS", None)
    solver_swaps = {}
    if isinstance(solvers, dict):
        solver_swaps = {k: solve_hook(tracer, f) for k, f in solvers.items()}
    gen = getattr(bench, "generate_instance", None)
    if oracle_factory is not None and gen is not None:
        targets.append((gen, lambda *a, **k: oracle_factory(gen(*a, **k))))

    saved = []
    by_id = {id(orig): new for orig, new in targets}
    for mod in _package_modules():
        for attr, val in list(vars(mod).items()):
            new = by_id.get(id(val))
            if new is not None:
                saved.append((mod, attr, val))
                setattr(mod, attr, new)
    saved_solvers = dict(solvers) if solver_swaps else None
    if solver_swaps:
        solvers.update(solver_swaps)
    try:
        yield
    finally:
        for mod, attr, val in reversed(saved):
            setattr(mod, attr, val)
        if saved_solvers is not None:
            solvers.clear()
            solvers.update(saved_solvers)


def _pct(values: np.ndarray, q: float) -> float:
    return float(np.percentile(values, q)) if len(values) else 0.0


def layer_metrics(tracer: Tracer) -> dict:
    """Metrics of the solver layers, from the spans inside solves.

    A layer's share is its self time over the total time of the solve
    spans; the four shares sum to one.  Metrics of a hook that could not be
    installed are left out.
    """
    tot = span_totals(tracer)
    counts = tracer.counts
    solve_s = float(tot["solver.solve"][2].sum()) if "solver.solve" in tot \
        else 0.0
    out = {}

    def calls_and_self(prefix):
        if prefix not in tracer.absent:
            calls, selft, _ = tot.get(prefix, (0, 0.0, None))
            out[f"{prefix}.calls"] = calls
            out[f"{prefix}.self_s"] = selft

    def share(layer):
        s = sum(v[1] for n, v in tot.items() if n.startswith(layer + "."))
        return s / solve_s if solve_s > 0 else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    for meth in ORACLE_METHODS:
        calls_and_self(f"objectives.{meth}")
    out["objectives.share"] = share("objectives")
    out["objectives.repeat_point_frac"] = ratio(
        counts["objectives.repeat_calls"], counts["objectives.calls"])

    for fn in MANIFOLD_FUNCS:
        calls_and_self(f"manifolds.{fn}")
    out["manifolds.share"] = share("manifolds")

    if "linesearch" not in tracer.absent:
        calls, selft, dur = tot.get("linesearch.line_search",
                                    (0, 0.0, np.empty(0)))
        nf = tot.get("objectives.value", (0,))[0]
        out["linesearch.calls"] = calls
        out["linesearch.self_s"] = selft
        out["linesearch.share"] = share("linesearch")
        out["linesearch.call_ms.p50"] = 1e3 * _pct(dur, 50)
        out["linesearch.call_ms.p99"] = 1e3 * _pct(dur, 99)
        out["linesearch.evals_per_call"] = ratio(counts["linesearch.evals"],
                                                 calls)
        out["linesearch.zero_step_frac"] = ratio(
            counts["linesearch.zero_steps"], calls)
        out["linesearch.width_stop_frac"] = ratio(
            counts["linesearch.width_stops"], calls)
        out["linesearch.zero_step_evals_frac"] = ratio(
            counts["linesearch.zero_step_evals"], nf)
        out["linesearch.stalls"] = counts["linesearch.stalls"]

    calls_and_self("solver.direction_update")
    out["solver.self_s"] = tot.get("solver.solve", (0, 0.0))[1]
    out["solver.share"] = share("solver")
    out["solver.record_bytes_per_iter"] = ratio(counts["solver.row_bytes"],
                                                counts["solver.rows"])
    out["solver.iters"] = counts["solver.iters"]
    out["solver.solves"] = counts["solver.solves"]
    return out
