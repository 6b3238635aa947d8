"""Print a bit-exact digest of every solve on one benchmark workload.

Usage (from the repository root):

    python3 tools/trajectory_digest.py --workload bench-trace --seed 1

The inputs are the ones ``perfbench/run.py`` builds for the workload and
seed (its ``make_instances``), so the two cannot drift.  Each instance is
solved by the conjugate subgradient method and by subgradient descent under
the workload's iteration cap, with ``record`` a sink that appends every row
it is handed, and every IRP entry list handed with the rows, to lists of
its own (so rows keep their tangent vectors), and one line is printed per
solve:

    key solver iters nf stop f.hex() rows_sha256 irp_sha256

The row hash covers every trajectory row's scalars (as float hex) but the
clock and ``width_stop``, and the bytes of its point, direction, combined
subgradient and transported direction.  ``width_stop`` follows from the
row's ``null`` and its search's trials (a search stopped at the width
unless its last trial returned), which the IRP hash covers; leaving it out
keeps the digest of a tree comparable with that of a tree whose rows lack
the field.  Rows do not keep the transported direction d; it is derived as
``transport_between(prev.x, row.x, prev.eta)``, which is the solve loop's d
bit for bit, for every row a direction update produced (``row.lam`` is
set), and hashed as ``-`` for row 1 and for subgradient rows.  The IRP hash
covers every interval-reduction trial of a conjugate subgradient solve: its
step, value and comparison value (as float hex) and its branch; a
subgradient solve makes no line search, its sink is handed no entry list,
and it prints ``-`` there.  A trial
value can change without moving an iterate, so the second hash is what
pins the line search's values.  Diffing the output of two trees is a
bit-identity check of their iterates and trial values; a callable sink is
the one way a solve hands out its IRP entries, so the same tool runs on
a tree from before ``SolveResult.irp_trace`` was removed.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.util
import itertools
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_perfbench():
    # Loaded before numpy, so the thread pinning in run.py takes effect.
    sys.path.insert(0, str(ROOT / "perfbench"))
    spec = importlib.util.spec_from_file_location(
        "perfbench_run", ROOT / "perfbench" / "run.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


_SCALARS = ("k", "f", "eta_norm", "gtilde_norm", "nf_cum", "t", "null",
            "lam", "alpha", "ortho")


def _scalar(v) -> bytes:
    if v is None:
        return b"-"
    return float(v).hex().encode()


def row_arrays(prev, row):
    """The hashed arrays of ``row``: point, direction, combined subgradient
    and the transported direction d (None unless a direction update, which
    sets ``row.lam``, produced the row from ``prev``, the row before)."""
    d = None
    if row.lam is not None:
        # Imported here: the package is the one perfbench's loader put on
        # the path, so it is this checkout's.
        from rcsopt import transport_between
        d = transport_between(prev.x, row.x, prev.eta)
    return row.x, row.eta, row.gtilde, d


def row_digest(rows) -> str:
    """SHA-256 over the scalars and tangent bytes of trajectory rows."""
    h = hashlib.sha256()
    prev = None
    for row in rows:
        for name in _SCALARS:
            h.update(_scalar(getattr(row, name)) + b";")
        for obj in row_arrays(prev, row):
            h.update(b"-" if obj is None else obj.data.tobytes())
            h.update(b";")
        prev = row
    return h.hexdigest()


def irp_digest(records) -> str:
    """SHA-256 over the step, value, comparison value and branch of each
    IRP trial record (the dicts of ``rcsopt.linesearch.irp_records``)."""
    h = hashlib.sha256()
    for rec in records:
        for name in ("tau", "l_tau", "l_lo"):
            h.update(_scalar(rec[name]) + b";")
        h.update(rec["branch"].encode() + b";")
    return h.hexdigest()


def sunk_solve(solve, *args, **kw):
    """(result, rows, entry lists) of a solve whose ``record`` is a sink
    appending each row and each IRP entry list it is handed; a solve that
    makes no line search hands no list."""
    rows, lists = [], []

    def sink(row, entries):
        rows.append(row)
        if entries is not None:
            lists.append(entries)
    return solve(*args, **kw, record=sink), rows, lists


def digest_lines(workload: str, seed: int, max_iters: int | None = None):
    """One digest line per (instance, solver) of the workload's inputs."""
    bench = _load_perfbench()
    rcsopt = bench.load_package()
    cap = max_iters or bench.WORKLOADS[workload]["max_iters"]
    cfg = rcsopt.SolverConfig() if cap is None \
        else rcsopt.SolverConfig(max_iters=cap)
    solvers = ((bench.CS, rcsopt.conjugate_subgradient_solve),
               (bench.SG, rcsopt.subgradient_descent_solve))
    for inst in bench.make_instances(rcsopt, workload, seed):
        key = f"{inst.group}-s{inst.seed}"
        for name, solve in solvers:
            try:
                res, rows, lists = sunk_solve(solve, inst.oracle, inst.x0,
                                              cfg, seed=inst.seed)
            except Exception as exc:  # a failure is part of the digest
                yield f"{key} {name} error {type(exc).__name__}: {exc}"
                continue
            irp_sha = irp_digest(rcsopt.irp_records(
                itertools.chain.from_iterable(lists))) if lists else "-"
            yield (f"{key} {name} {res.iters} {res.nf} {res.stop_reason} "
                   f"{float(res.f).hex()} {row_digest(rows)} {irp_sha}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--max-iters", type=int, default=None,
                        help="iteration cap (default: the workload's)")
    args = parser.parse_args(argv)
    for line in digest_lines(args.workload, args.seed, args.max_iters):
        print(line, flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
