"""``bench`` command line interface.

Subcommands:

* ``bench run --suite spec.json --out DIR [--jobs N] [--trace]`` runs a suite
  and writes records.csv, profiles.csv, summary.json (and, with --trace,
  per-cell trajectory .jsonl files plus line-search interval traces).
* ``bench profile --records records.csv --out profiles.csv`` recomputes the
  performance profiles from a records file.
* ``bench check --trajectory run.jsonl`` verifies the recorded invariants:
  monotone descent, the direction/norm recursions, and the orthogonality of
  the combined subgradient to the transported direction.

The environment variable ``RCSOPT_SEED`` overrides the suite's base seed.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import bench as _bench
from . import solver as _solver


def _cmd_run(args) -> int:
    spec = _bench.SuiteSpec.from_json(Path(args.suite).read_text())
    env_seed = os.environ.get("RCSOPT_SEED")
    if env_seed is not None:
        spec = _bench.SuiteSpec(kind=spec.kind, sizes=spec.sizes,
                                runs=spec.runs, base_seed=int(env_seed),
                                solvers=spec.solvers,
                                solver_configs=spec.solver_configs)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    result = _bench.run_suite(spec, jobs=args.jobs, keep_results=args.trace)

    (out / "records.csv").write_text(_bench.records_to_csv(result.records))
    (out / "profiles.csv").write_text(_bench.profiles_to_csv(result.profiles))
    for curve in result.profiles:
        (out / f"profile_{curve.solver}.csv").write_text(
            _bench.profiles_to_csv([curve]))
    (out / "summary.json").write_text(json.dumps(
        {"spec": json.loads(spec.to_json()), "summary": result.summary,
         "f_opt": result.f_opt}, indent=2))
    if args.trace and result.results:
        for (problem, solver_name), res in result.results.items():
            path = out / f"traj_{problem}_{solver_name}.jsonl"
            path.write_text(_solver.trajectory_to_jsonl(
                res.trajectory, include_tangents=True))
    if args.trace and result.irp_traces:
        for (problem, solver_name), recs in result.irp_traces.items():
            path = out / f"irp_{problem}_{solver_name}.jsonl"
            path.write_text("".join(json.dumps(r) + "\n" for r in recs))
    for row in result.summary:
        print(f"{row['kind']} n={row['n']} m={row['m']} {row['solver']}: "
              f"iter={row['mean_iters']:.1f} nf={row['mean_nf']:.1f} "
              f"time={row['mean_time_s']:.4f}s solved={row['solved']}/{row['runs']}")
    print(f"wrote {out / 'records.csv'}")
    return 0


def _cmd_profile(args) -> int:
    records = _bench.records_from_csv(Path(args.records).read_text())
    curves = _bench.performance_profile(records)
    Path(args.out).write_text(_bench.profiles_to_csv(curves))
    for c in curves:
        print(f"{c.solver}: rho(1)={c.rho_at(1.0):.3f} "
              f"solved={int(sum(r < float('inf') for r in c.ratios))}/{len(c.ratios)}")
    return 0


def _cmd_check(args) -> int:
    rows = _solver.trajectory_from_jsonl(Path(args.trajectory).read_text())
    if not rows:
        print("empty trajectory", file=sys.stderr)
        return 2
    failures = 0

    bad = _solver.descent_violations(rows)
    failures += bad > 0
    print(f"descent: {'PASS' if bad == 0 else f'FAIL ({bad} increases)'}")

    res = _solver.norm_recursion_residual(rows)
    ok = res <= 1e-6
    failures += not ok
    print(f"norm recursion: {'PASS' if ok else 'FAIL'} (max rel err {res:.3e})")

    bad, total = _solver.orthogonality_violations(rows)
    if total:
        # Bracket stops at the width tolerance or the injectivity clamp can
        # leave a real residual, so up to 1% of iterations may exceed the
        # scale tolerance.
        ok = bad <= 0.01 * total
        failures += not ok
        print(f"orthogonality: {'PASS' if ok else 'FAIL'} "
              f"({bad}/{total} beyond tolerance)")
    else:
        print("orthogonality: skipped (no recorded inner products)")

    if rows[0].x is not None:
        res = _solver.fr_direction_check(rows)
        ok = res <= 1e-6
        failures += not ok
        print(f"direction recursion: {'PASS' if ok else 'FAIL'} "
              f"(max residual {res:.3e})")
    else:
        print("direction recursion: skipped (trajectory lacks tangent data; "
              "re-run with --trace)")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="bench", description="benchmark harness for the manifold "
        "conjugate subgradient solver")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run a benchmark suite")
    p_run.add_argument("--suite", required=True, help="suite spec JSON file")
    p_run.add_argument("--out", required=True, help="output directory")
    p_run.add_argument("--jobs", type=int, default=1)
    p_run.add_argument("--trace", action="store_true",
                       help="write per-cell trajectory JSONL files")
    p_run.set_defaults(func=_cmd_run)

    p_prof = sub.add_parser("profile", help="profiles from a records CSV")
    p_prof.add_argument("--records", required=True)
    p_prof.add_argument("--out", required=True)
    p_prof.set_defaults(func=_cmd_profile)

    p_check = sub.add_parser("check", help="verify trajectory invariants")
    p_check.add_argument("--trajectory", required=True)
    p_check.set_defaults(func=_cmd_check)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
