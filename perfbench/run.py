"""End-to-end and per-layer benchmark of the rcsopt solver.

Usage (from the repository root):

    python3 perfbench/run.py --workload sphere-cs --seed 1 --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with the package called
directly.  ``--trace 1`` alternates an untraced pass with a traced pass over
the same inputs and reports per-layer metrics from spans recorded around the
calls into each module (see ``spans.py``).  Load is a closed loop: one solve
at a time in this process, BLAS pinned to one thread.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``,
``metrics``; the lines before it are a readable report and machine info.
See README.md in this directory for the workloads and metrics.
"""

import os

# Thread pools are sized when numpy loads, so pin them first.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import csv
import importlib
import io
import json
import math
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from spans import (MANIFOLD_FUNCS, ORACLE_METHODS, TimedOracle, Tracer,
                   installed, layer_metrics, solve_hook, span_totals)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

CS, SG = "conjugate_subgradient", "subgradient"
SETUP_REPEATS = 5
NORM_RECURSION_TOL = 1e-6
DESCENT_REL_TOL = 1e-12

# Each solve group is (kind, n, m, instances per pass).  Why each workload is
# here is in BENCHMARK.json and README.md.
WORKLOADS = {
    "sphere-cs": {"groups": (("rayleigh", 50, 200, 1),
                             ("median", 100, 200, 1)),
                  "max_iters": 500},
    "spd-cs": {"groups": (("karcher", 5, 50, 6), ("karcher", 20, 50, 3)),
               "max_iters": None},   # each solve runs to its own stop
    "bench-trace": {"suite": ("rayleigh", 5, 200, 6), "max_iters": 500},
}

# Reported in the final JSON line (trace 0); these hold steady across seeds.
E2E_METRICS = {"setup_s": "s", "ms_per_iter": "ms",
               "evals_per_iter": "evals/iter", "f_final.mean": "f",
               "peak_rss_mb": "MB"}
# Printed in the report and written to the result file, not bounded: on
# spd-cs they follow each instance's iteration count (10 to 111 at n=20).
E2E_REPORT_ONLY = {"wall_s": "s", "solve_s.p50": "s", "solves": "count",
                   "iters": "count", "nf": "count", "fail_frac": "frac"}


def _layer_metric_units() -> dict:
    units = {}
    for meth in ORACLE_METHODS:
        units[f"objectives.{meth}.calls"] = "count"
        units[f"objectives.{meth}.self_s"] = "s"
    units["objectives.share"] = "frac"
    units["objectives.repeat_point_frac"] = "frac"
    for fn in MANIFOLD_FUNCS:
        units[f"manifolds.{fn}.calls"] = "count"
        units[f"manifolds.{fn}.self_s"] = "s"
    units["manifolds.share"] = "frac"
    units.update({
        "linesearch.calls": "count", "linesearch.self_s": "s",
        "linesearch.share": "frac", "linesearch.call_ms.p50": "ms",
        "linesearch.call_ms.p99": "ms", "linesearch.evals_per_call": "count",
        "linesearch.zero_step_frac": "frac",
        "linesearch.width_stop_frac": "frac",
        "linesearch.zero_step_evals_frac": "frac",
        "linesearch.stalls": "count",
        "solver.direction_update.calls": "count",
        "solver.direction_update.self_s": "s", "solver.self_s": "s",
        "solver.share": "frac", "solver.record_bytes_per_iter": "B",
        "solver.iters": "count", "solver.solves": "count",
        "bench.run_suite.self_s": "s", "bench.error_rows": "count",
        "cli.write_s": "s", "cli.bytes_written": "B", "cli.check_s": "s",
        "trace_overhead_frac": "frac"})
    return units


LAYER_METRICS = _layer_metric_units()


@dataclass
class Instance:
    group: str
    seed: int
    oracle: object
    x0: object


@dataclass
class Outcome:
    """One solve (or one suite cell) as the benchmark saw it."""
    key: str
    group: str
    secs: float
    iters: int = 0
    nf: int = 0
    f: float = math.nan
    error: str | None = None

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass
class PassResult:
    wall_s: float
    outcomes: list = field(default_factory=list)
    layer: dict = field(default_factory=dict)   # traced passes only


def _instance_seed(seed: int, j: int) -> int:
    return seed * 100 + j


def make_instances(rcsopt, workload: str, seed: int) -> list[Instance]:
    """The seeded inputs of one pass, in solve order."""
    spec = WORKLOADS[workload]
    if "suite" in spec:
        kind, n, m, runs = spec["suite"]
        groups = ((kind, n, m, runs),)
    else:
        groups = spec["groups"]
    out = []
    for kind, n, m, count in groups:
        for j in range(count):
            s = _instance_seed(seed, j)
            out.append(Instance(f"{kind}-n{n}-m{m}", s,
                                rcsopt.generate_instance(kind, n, m, s),
                                rcsopt.initial_point(kind, n, s)))
    return out


def trajectory_error(res) -> str | None:
    """Why a finished conjugate-subgradient solve's output is wrong, or None."""
    if not math.isfinite(res.f):
        return f"non-finite f {res.f}"
    fs = [row.f for row in res.trajectory]
    for a, b in zip(fs, fs[1:]):
        if b > a + DESCENT_REL_TOL * (1.0 + abs(a)):
            return f"descent violated: {a!r} -> {b!r}"
    acc = worst = 0.0
    for row in res.trajectory:
        if row.gtilde_norm == 0.0 or row.eta_norm == 0.0:
            break
        acc += 1.0 / row.gtilde_norm ** 2
        lhs = 1.0 / row.eta_norm ** 2
        worst = max(worst, abs(lhs - acc) / lhs)
    if worst > NORM_RECURSION_TOL:
        return f"norm recursion residual {worst:.3e}"
    return None


def solve_pass(rcsopt, workload, instances, tracer=None) -> PassResult:
    """Solve every instance once with the conjugate subgradient method."""
    max_iters = WORKLOADS[workload]["max_iters"]
    cfg = (rcsopt.SolverConfig() if max_iters is None
           else rcsopt.SolverConfig(max_iters=max_iters))
    solve = rcsopt.conjugate_subgradient_solve
    if tracer is not None:
        solve = solve_hook(tracer, solve)
    result = PassResult(0.0)
    t_pass = perf_counter()
    for inst in instances:
        oracle = inst.oracle if tracer is None else TimedOracle(inst.oracle,
                                                                tracer)
        key = f"{inst.group}-s{inst.seed}"
        t0 = perf_counter()
        try:
            res = solve(oracle, inst.x0, cfg, seed=inst.seed)
        except Exception as exc:  # a failed solve is data; keep going
            result.outcomes.append(Outcome(key, inst.group,
                                           perf_counter() - t0,
                                           error=f"{type(exc).__name__}: {exc}"))
            continue
        secs = perf_counter() - t0
        result.outcomes.append(Outcome(key, inst.group, secs, res.iters,
                                       res.nf, float(res.f),
                                       trajectory_error(res)))
        del res
    result.wall_s = perf_counter() - t_pass
    if tracer is not None:
        result.layer = layer_metrics(tracer)
    return result


def _read_records(path: Path) -> list[dict]:
    with path.open(newline="") as fh:
        return list(csv.DictReader(fh))


def suite_pass(rcsopt, workload, seed, tracer=None) -> PassResult:
    """``bench run --trace`` on the workload's suite, then ``bench check``.

    Every conjugate-subgradient trajectory must pass ``bench check``;
    subgradient trajectories carry no descent guarantee and are not checked.
    """
    kind, n, m, runs = WORKLOADS[workload]["suite"]
    max_iters = WORKLOADS[workload]["max_iters"]
    spec = {"kind": kind, "sizes": [[n, m]], "runs": runs,
            "base_seed": _instance_seed(seed, 0), "solvers": [CS, SG],
            "solver_configs": {CS: {"max_iters": max_iters},
                               SG: {"max_iters": max_iters}}}
    work = OUT / f"{workload}-s{seed}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    suite = work / "suite.json"
    suite.write_text(json.dumps(spec))
    run_dir = work / "run"
    main = rcsopt.cli.main
    run_main = check_main = main
    if tracer is not None:
        run_main = tracer.wrap("cli.run", main)
        check_main = tracer.wrap("cli.check", main)

    result = PassResult(0.0)
    t_pass = perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            rc = run_main(["run", "--suite", str(suite), "--out",
                           str(run_dir), "--jobs", "1", "--trace"])
            records = _read_records(run_dir / "records.csv")
        except Exception as exc:  # the whole suite failed; count every cell
            err = f"{type(exc).__name__}: {exc}"
            result.outcomes = [Outcome(f"cell{i}", "suite", 0.0, error=err)
                               for i in range(2 * runs)]
            result.wall_s = perf_counter() - t_pass
            return result
        trajs = sorted(run_dir.glob("traj_*.jsonl"))
        for rec in records:
            out = Outcome(f"{rec['problem']}-{rec['solver']}", rec["solver"],
                          float(rec["wall_time_s"]), int(rec["iters"]),
                          int(rec["nf"]), float(rec["final_f"]),
                          rec["error"] or None)
            if out.ok and rc != 0:
                out.error = f"bench run exited {rc}"
            if out.ok and not math.isfinite(out.f):
                out.error = f"non-finite f {out.f}"
            if out.ok and rec["solver"] == CS:
                path = [p for p in trajs if rec["problem"] in p.name
                        and CS in p.name]
                code = check_main(["check", "--trajectory", str(path[0])]) \
                    if path else "no trajectory file"
                if code != 0:
                    out.error = f"bench check: {code}"
            result.outcomes.append(out)
    result.wall_s = perf_counter() - t_pass
    if tracer is not None:
        tot = span_totals(tracer, solves_only=False)
        layer = layer_metrics(tracer)
        layer["bench.run_suite.self_s"] = tot.get("bench.run_suite",
                                                  (0, 0.0))[1]
        layer["bench.error_rows"] = sum(bool(r["error"]) for r in records)
        layer["cli.write_s"] = tot.get("cli.run", (0, 0.0))[1]
        layer["cli.check_s"] = float(tot["cli.check"][2].sum()) \
            if "cli.check" in tot else 0.0
        layer["cli.bytes_written"] = sum(p.stat().st_size
                                         for p in run_dir.iterdir())
        result.layer = layer
    shutil.rmtree(work, ignore_errors=True)
    return result


def run_pass(rcsopt, workload, seed, instances, tracer=None) -> PassResult:
    """One pass; with a tracer, the span hooks are in place during it."""
    if "suite" in WORKLOADS[workload]:
        def one_pass():
            return suite_pass(rcsopt, workload, seed, tracer)
    else:
        def one_pass():
            return solve_pass(rcsopt, workload, instances, tracer)
    if tracer is None:
        return one_pass()
    with installed(tracer, rcsopt,
                   oracle_factory=lambda o: TimedOracle(o, tracer)):
        return one_pass()


def reproduce(reference: list, outcomes: list, what: str) -> None:
    """Mark outcomes whose iters/nf/f differ from the same input's reference."""
    for ref, out in zip(reference, outcomes):
        if out.ok and ref.ok and (out.iters, out.nf, out.f) != (
                ref.iters, ref.nf, ref.f):
            out.error = (f"{what} gave iters/nf/f {out.iters}/{out.nf}/"
                         f"{out.f!r}, expected {ref.iters}/{ref.nf}/{ref.f!r}")


def _geomean(values: list) -> float:
    return statistics.geometric_mean(values) if values else 0.0


def group_figures(passes: list) -> dict:
    """Per problem group: ms/iter, evals/iter, mean final f and iterations.

    ms/iter is the group's solve time summed over every pass of the run,
    divided by the iterations of those solves.  Counts and f come from the
    first pass, which later passes must reproduce.
    """
    out = {}
    for g in sorted({o.group for o in passes[0].outcomes}):
        solved = [o for p in passes for o in p.outcomes
                  if o.group == g and o.ok]
        first = [o for o in passes[0].outcomes if o.group == g and o.ok]
        iters = sum(o.iters for o in first)
        if iters:
            out[g] = {"ms_per_iter": 1e3 * sum(o.secs for o in solved)
                      / sum(o.iters for o in solved),
                      "evals_per_iter": sum(o.nf for o in first) / iters,
                      "f_final.mean": statistics.fmean(o.f for o in first),
                      "iters": iters}
    return out


def e2e_metrics(passes: list, setup_s: float, groups: dict) -> dict:
    """End-to-end figures from the untraced passes; each group weighs equally."""
    first = passes[0].outcomes
    attempted = sum(len(p.outcomes) for p in passes)
    failed = sum(not o.ok for p in passes for o in p.outcomes)
    figures = list(groups.values())
    return {
        "setup_s": setup_s,
        "ms_per_iter": _geomean([g["ms_per_iter"] for g in figures]),
        "evals_per_iter": _geomean([g["evals_per_iter"] for g in figures]),
        "f_final.mean": (statistics.fmean(g["f_final.mean"] for g in figures)
                         if figures else 0.0),
        "peak_rss_mb": peak_rss_mb(),
        "wall_s": statistics.median(p.wall_s for p in passes),
        "solve_s.p50": statistics.median(
            [o.secs for p in passes for o in p.outcomes] or [0.0]),
        "solves": attempted,
        "iters": sum(o.iters for o in first),
        "nf": sum(o.nf for o in first),
        "fail_frac": failed / attempted if attempted else 1.0,
    }


def layer_summary(traced: list, untraced: list) -> dict:
    """Per-layer metrics: per traced pass, then the median across passes."""
    metrics = {}
    for name in LAYER_METRICS:
        vals = [p.layer[name] for p in traced if name in p.layer]
        if vals:
            metrics[name] = statistics.median(vals)
    for name in ("bench.run_suite.self_s", "bench.error_rows", "cli.write_s",
                 "cli.bytes_written", "cli.check_s"):
        metrics.setdefault(name, 0)   # layer not exercised by this workload
    metrics["trace_overhead_frac"] = (
        statistics.median(p.wall_s for p in traced)
        / statistics.median(p.wall_s for p in untraced) - 1.0)
    return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit() -> str:
    """HEAD's commit when the checkout is a git work tree, else "unknown"."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def machine_info() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    blas = "unknown"
    try:
        dep = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{dep.get('name')} {dep.get('version')}"
    except Exception:  # older numpy has no dict mode; info only
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu,
            "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
            "commit": _git_commit()}


_IMPORT_PROBE = ("import time; t = time.perf_counter(); import rcsopt, rcsopt.cli; "
                 "print(time.perf_counter() - t)")


def import_seconds() -> float:
    """Median time to import the package in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE], env=env,
                             cwd=ROOT, capture_output=True, text=True,
                             check=True, timeout=60)
        times.append(float(out.stdout))
    return statistics.median(times)


def load_package():
    """Import rcsopt from this checkout's source tree."""
    if not (SRC / "rcsopt" / "__init__.py").is_file():
        raise FileNotFoundError(f"no rcsopt sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    importlib.import_module("rcsopt.cli")
    return importlib.import_module("rcsopt")


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    os.environ.pop("RCSOPT_SEED", None)   # the suite's base seed is ours
    rcsopt = load_package()
    gen_s = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        instances = make_instances(rcsopt, workload, seed)
        gen_s.append(perf_counter() - t0)
    setup_s = import_seconds() + statistics.median(gen_s)

    untraced, traced, tracers = [], [], []
    t_start = perf_counter()
    while not untraced or perf_counter() - t_start < seconds:
        untraced.append(run_pass(rcsopt, workload, seed, instances))
        if trace:
            tracers.append(Tracer())
            traced.append(run_pass(rcsopt, workload, seed, instances,
                                   tracers[-1]))
    for p in untraced[1:]:
        reproduce(untraced[0].outcomes, p.outcomes, "repeat pass")
    for p in traced:
        reproduce(untraced[0].outcomes, p.outcomes, "traced pass")

    passes = untraced + traced
    groups = group_figures(untraced)
    report = e2e_metrics(untraced, setup_s, groups)
    attempted = sum(len(p.outcomes) for p in passes)
    errors = [f"{o.key}: {o.error}" for p in passes for o in p.outcomes
              if not o.ok]
    result = {"workload": workload, "seed": seed, "seconds": seconds,
              "trace": int(trace), "machine": machine_info(),
              "end_to_end": report, "groups": groups,
              "samples": [[k, o.key, o.secs, o.iters, o.nf]
                          for k, p in enumerate(untraced) for o in p.outcomes],
              "errors": errors[:20]}
    if trace:
        result["per_layer"] = layer_summary(traced, untraced)
        OUT.mkdir(exist_ok=True)
        for old in OUT.glob(f"spans-{workload}-p*.npz"):
            old.unlink()
        for k, tr in enumerate(tracers):
            tr.save(OUT / f"spans-{workload}-p{k}.npz")
    result["summary"] = {
        "correct": not errors, "attempted": attempted, "failed": len(errors),
        "metrics": ({k: {"value": v, "unit": LAYER_METRICS[k]}
                     for k, v in result["per_layer"].items()} if trace else
                    {k: {"value": report[k], "unit": u}
                     for k, u in E2E_METRICS.items()})}
    return result


def print_report(result: dict) -> None:
    print(f"workload {result['workload']} seed {result['seed']} "
          f"trace {result['trace']}")
    print("machine " + json.dumps(result["machine"]))
    units = {**E2E_METRICS, **E2E_REPORT_ONLY}
    for name, value in result["end_to_end"].items():
        print(f"  {name} = {value:.6g} {units[name]}")
    for name, value in result.get("per_layer", {}).items():
        print(f"  {name} = {value:.6g} {LAYER_METRICS[name]}")
    for err in result["errors"]:
        print(f"  error: {err}")
    print(json.dumps(result["summary"]))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except FileNotFoundError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-s{args.seed}-t{args.trace}.json"
     ).write_text(json.dumps(result, indent=1))
    print_report(result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
