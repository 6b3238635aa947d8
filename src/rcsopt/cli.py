"""``bench`` command line interface.

Subcommands:

* ``bench run --suite spec.json --out DIR [--jobs N] [--trace]`` runs a suite
  and writes records.csv, profiles.csv, summary.json (and, with --trace,
  per-cell trajectory .jsonl files plus line-search interval traces,
  written a batch of rows at a time while each cell solves, so a cell
  holds a bounded number of rows).
* ``bench profile --records records.csv --out profiles.csv`` recomputes the
  performance profiles from a records file.
* ``bench check --trajectory run.jsonl`` verifies the recorded invariants
  with :func:`rcsopt.solver.check_trajectory` as the file streams in, one
  row at a time: monotone descent, the direction/norm recursions, and the
  orthogonality of the combined subgradient to the transported direction.
  The pass/fail thresholds are the solver module's.

The environment variable ``RCSOPT_SEED`` overrides the suite's base seed.

Bad input (an unreadable or malformed suite, records or trajectory file, a
``RCSOPT_SEED`` that is not an integer >= 0, an invalid solver config, a
``--jobs`` below 1, an ``--out`` that cannot be made a directory, a
``bench profile --out`` that cannot be written, a records row whose wall
time is not finite and >= 0 or whose ``solved`` is not true, false or
empty, two records for one (problem, solver) pair, a solver named twice in
a suite, an empty trajectory file, invalid tangent data or tangent data on
some rows only) is
reported as one line on stderr with exit code 2, before anything is written
to ``--out`` and before any verdict of ``bench check``.  Errors inside a
suite cell stay error rows of the records.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

from . import bench as _bench
from . import solver as _solver


class _BadInput(Exception):
    """Input rejected before any work; ``main`` prints it as one line."""


def _load(path: str, parse, what: str):
    """``parse`` of the open text file at ``path``; _BadInput if the file
    cannot be read or parsed (JSON nested too deep for the parser raises
    RecursionError)."""
    try:
        with open(path) as fh:
            return parse(fh)
    except (OSError, ValueError, KeyError, TypeError, ArithmeticError,
            RecursionError) as e:
        raise _BadInput(f"{what} {path}: {type(e).__name__}: {e}") from e


def _finite_or_null(f: float) -> float | None:
    return f if math.isfinite(f) else None


def _cmd_run(args) -> int:
    if args.jobs < 1:
        raise _BadInput(f"--jobs must be >= 1, got {args.jobs}")
    spec = _load(args.suite, lambda fh: _bench.SuiteSpec.from_json(fh.read()),
                 "suite file")
    env_seed = os.environ.get("RCSOPT_SEED")
    if env_seed is not None:
        try:
            spec = dataclasses.replace(spec, base_seed=int(env_seed))
        except ValueError:
            raise _BadInput(f"RCSOPT_SEED must be an integer >= 0, "
                            f"got {env_seed!r}") from None
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise _BadInput(f"output directory {out}: {type(e).__name__}: "
                        f"{e}") from e

    result = _bench.run_suite(spec, jobs=args.jobs,
                              trace_dir=out if args.trace else None)

    (out / "records.csv").write_text(_bench.records_to_csv(result.records))
    (out / "profiles.csv").write_text(_bench.profiles_to_csv(result.profiles))
    for curve in result.profiles:
        (out / f"profile_{curve.solver}.csv").write_text(
            _bench.profiles_to_csv([curve]))
    # JSON has no infinity: a mean over an error row (inf), or the f_opt of
    # a problem with no finite value, is written as null.
    summary = [{**row, "mean_final_f": _finite_or_null(row["mean_final_f"])}
               for row in result.summary]
    f_opt = {k: _finite_or_null(f) for k, f in result.f_opt.items()}
    (out / "summary.json").write_text(json.dumps(
        {"spec": json.loads(spec.to_json()), "summary": summary,
         "f_opt": f_opt}, indent=2))
    for row in result.summary:
        print(f"{row['kind']} n={row['n']} m={row['m']} {row['solver']}: "
              f"iter={row['mean_iters']:.1f} nf={row['mean_nf']:.1f} "
              f"time={row['mean_time_s']:.4f}s solved={row['solved']}/{row['runs']}")
    print(f"wrote {out / 'records.csv'}")
    return 0


def _cmd_profile(args) -> int:
    records = _load(args.records,
                    lambda fh: _bench.records_from_csv(fh.read()),
                    "records file")
    if not records:
        raise _BadInput(f"records file {args.records}: no records")
    try:
        curves = _bench.performance_profile(records)
    except ValueError as e:
        raise _BadInput(f"records file {args.records}: "
                        f"{type(e).__name__}: {e}") from e
    text = _bench.profiles_to_csv(curves)
    try:
        Path(args.out).write_text(text)
    except OSError as e:
        raise _BadInput(f"output file {args.out}: {type(e).__name__}: "
                        f"{e}") from e
    for c in curves:
        print(f"{c.solver}: rho(1)={c.rho_at(1.0):.3f} "
              f"solved={int(sum(r < float('inf') for r in c.ratios))}/{len(c.ratios)}")
    return 0


def _cmd_check(args) -> int:
    # The file streams through the parser into the check, one row at a time.
    check = _load(args.trajectory, lambda fh: _solver.check_trajectory(
        _solver.trajectory_from_jsonl(fh)), "trajectory file")
    failures = 0
    for line, failed in check.verdicts():
        print(line)
        failures += failed
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
    try:
        return args.func(args)
    except _BadInput as e:
        print(f"bench {args.command}: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
