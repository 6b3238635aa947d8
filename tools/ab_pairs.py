"""Alternating parent/change benchmark pairs, and the rule for claiming a gain.

Usage (from either checkout):

    python3 tools/ab_pairs.py --parent ../parent --change . \
        --workload bench-trace --seeds 201-210

runs ``perfbench/run.py --workload W --seed S --trace 0 --seconds 20`` in
the two checkouts, one pair per seed, alternating which side runs first
(the parent first on even pair indices).  It prints every run, then for each
workload and end-to-end metric: each side's median and quartiles, the pairs
the change won (ties count for neither side), the relative change of the
medians against the metric's bound in the parent's ``BENCHMARK.json``, and
whether a gain may be claimed: at least 9 wins in 10 over at least ten pairs,
and a median gap in the better direction larger than the parent's
interquartile range.  Both sides always run at the benchmark's fixed
length, ``RUN_SECONDS``, so every pair compares like with like.  Then the
same figures for each problem group's ``ms_per_iter`` (on bench-trace the
``conjugate_subgradient`` and ``subgradient`` cells, on sphere-cs the
rayleigh and median groups), read from the ``groups`` field of the result
file each run leaves in its tree,
``.perfbench_out/result-<workload>-s<seed>-t0.json``.

    python3 tools/ab_pairs.py --parent ../parent --change . \
        --workload sphere-cs --seeds 1-3 --digest

instead diffs ``tools/trajectory_digest.py`` output of the two trees for
each workload and seed, and exits 1 when any line differs: a bit-identity
check of the iterates and line-search trial values.
"""

from __future__ import annotations

import argparse
import difflib
import json
import subprocess
import sys
from pathlib import Path

import numpy as np

WIN_SHARE = 0.9
MIN_PAIRS = 10
RUN_SECONDS = 20
RUN_TIMEOUT_S = 900


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(lower quartile, median, upper quartile), linear interpolation."""
    q1, q2, q3 = np.percentile(np.asarray(values, dtype=float), [25, 50, 75])
    return float(q1), float(q2), float(q3)


def gain_verdict(parent: list[float], change: list[float],
                 better: str = "lower") -> dict:
    """Whether paired runs show a gain for the change.

    ``parent[i]`` and ``change[i]`` are one pair.  The change wins a pair
    when its value is strictly better.  A gain holds with at least
    ``MIN_PAIRS`` pairs, wins in at least ``WIN_SHARE`` of them, and a
    median gap in the better direction larger than the parent's
    interquartile range.
    """
    if len(parent) != len(change) or not parent:
        raise ValueError("need the same nonzero number of runs on each side")
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0.0 for p, c in zip(parent, change))
    p1, pmed, p3 = quartiles(parent)
    c1, cmed, c3 = quartiles(change)
    gap = sign * (pmed - cmed)
    n = len(parent)
    return {"pairs": n, "wins": wins,
            "parent": {"q1": p1, "median": pmed, "q3": p3},
            "change": {"q1": c1, "median": cmed, "q3": c3},
            "gap": gap, "parent_iqr": p3 - p1,
            "holds": bool(n >= MIN_PAIRS and wins >= WIN_SHARE * n
                          and gap > p3 - p1)}


def within_bound(parent_median: float, change_median: float, bound: float,
                 better: str = "lower") -> bool:
    """The change's median is no worse than the parent's by more than
    ``bound`` relative to the parent's."""
    worse = change_median - parent_median if better == "lower" \
        else parent_median - change_median
    return worse <= bound * abs(parent_median)


def parse_seeds(text: str) -> list[int]:
    """"201-210" or "1,4,7" to a list of seeds."""
    if "-" in text:
        lo, hi = (int(s) for s in text.split("-", 1))
        return list(range(lo, hi + 1))
    return [int(s) for s in text.split(",")]


def read_groups(tree: Path, workload: str, seed: int) -> dict:
    """group -> ms_per_iter from the untraced result file of one run."""
    path = tree / ".perfbench_out" / f"result-{workload}-s{seed}-t0.json"
    groups = json.loads(path.read_text()).get("groups", {})
    return {g: fig["ms_per_iter"] for g, fig in groups.items()}


def run_bench(tree: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run: the JSON summary from its last line, plus
    the per-group ms_per_iter under ``"groups"``."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--trace", "0", "--seconds", str(RUN_SECONDS)],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    lines = out.stdout.strip().splitlines()
    if out.returncode != 0 or not lines:
        raise RuntimeError(f"{tree}: perfbench exited {out.returncode}: "
                           f"{out.stderr.strip()[-500:]}")
    summary = json.loads(lines[-1])
    summary["groups"] = read_groups(tree, workload, seed)
    return summary


def metric_specs(tree: Path) -> dict:
    """name -> (better, bound) from the tree's BENCHMARK.json."""
    spec = json.loads((tree / "BENCHMARK.json").read_text())
    return {m["name"]: (m.get("better", "lower"), m.get("bound"))
            for m in spec.get("end_to_end", [])}


def run_pairs(parent: Path, change: Path, workloads: list[str],
              seeds: list[int]) -> dict:
    """workload -> list of {"seed", "first", "parent", "change"} runs."""
    runs = {}
    for w in workloads:
        runs[w] = []
        for j, seed in enumerate(seeds):
            order = [("parent", parent), ("change", change)]
            if j % 2:
                order.reverse()
            rec = {"seed": seed, "first": order[0][0]}
            for side, tree in order:
                rec[side] = run_bench(tree, w, seed)
            runs[w].append(rec)
            print(f"{w} seed {seed} ({rec['first']} first)", flush=True)
            for side in ("parent", "change"):
                summ = rec[side]
                vals = " ".join(
                    [f"{k}={m['value']:.6g}" for k, m in summ["metrics"].items()]
                    + [f"{g}.ms_per_iter={v:.6g}"
                       for g, v in summ["groups"].items()])
                print(f"  {side}: correct={summ['correct']} "
                      f"failed={summ['failed']}/{summ['attempted']} {vals}",
                      flush=True)
    return runs


def verdicts(runs: dict, specs: dict) -> dict:
    """workload -> metric -> gain verdict plus the bound check."""
    out = {}
    for w, recs in runs.items():
        out[w] = {}
        names = recs[0]["parent"]["metrics"]
        for name in names:
            better, bound = specs.get(name, ("lower", None))
            p = [r["parent"]["metrics"][name]["value"] for r in recs]
            c = [r["change"]["metrics"][name]["value"] for r in recs]
            v = gain_verdict(p, c, better)
            v["better"] = better
            v["bound"] = bound
            if bound is not None:
                v["within_bound"] = within_bound(v["parent"]["median"],
                                                 v["change"]["median"],
                                                 bound, better)
            out[w][name] = v
    return out


def group_verdicts(runs: dict) -> dict:
    """workload -> group -> gain verdict on the group's ms_per_iter, over the
    pairs where both sides report the group."""
    out = {}
    for w, recs in runs.items():
        out[w] = {}
        names = sorted({g for r in recs for g in r["parent"]["groups"]})
        for g in names:
            pairs = [(r["parent"]["groups"][g], r["change"]["groups"][g])
                     for r in recs if g in r["change"]["groups"]
                     and g in r["parent"]["groups"]]
            if pairs:
                out[w][g] = gain_verdict([p for p, _ in pairs],
                                         [c for _, c in pairs])
    return out


def _relative(v: dict) -> float:
    p, c = v["parent"]["median"], v["change"]["median"]
    return c / p - 1.0 if p else 0.0


def print_groups(table: dict) -> None:
    for w, groups in table.items():
        if groups:
            print(f"\n{w} ms_per_iter by group (lower is better)")
        for g, v in groups.items():
            p, c = v["parent"], v["change"]
            print(f"  {g}\n"
                  f"    parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
                  f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                  f"  {_relative(v):+.1%}  wins {v['wins']}/{v['pairs']}")


def print_verdicts(table: dict) -> None:
    for w, metrics in table.items():
        print(f"\n{w}")
        for name, v in metrics.items():
            p, c = v["parent"], v["change"]
            rel = _relative(v)
            bound = "" if v["bound"] is None else (
                f"  bound {v['bound']:g}: "
                + ("ok" if v["within_bound"] else "EXCEEDED"))
            print(f"  {name} ({v['better']} is better)\n"
                  f"    parent {p['median']:.6g} [{p['q1']:.6g}, {p['q3']:.6g}]"
                  f"  change {c['median']:.6g} [{c['q1']:.6g}, {c['q3']:.6g}]"
                  f"  {rel:+.1%}\n"
                  f"    wins {v['wins']}/{v['pairs']}  gap {v['gap']:.6g}"
                  f"  parent IQR {v['parent_iqr']:.6g}"
                  f"  gain holds: {'yes' if v['holds'] else 'no'}{bound}")


def digest_lines(tree: Path, workload: str, seed: int) -> list[str]:
    out = subprocess.run(
        [sys.executable, "tools/trajectory_digest.py", "--workload", workload,
         "--seed", str(seed)],
        cwd=tree, capture_output=True, text=True, timeout=RUN_TIMEOUT_S)
    if out.returncode != 0:
        raise RuntimeError(f"{tree}: trajectory_digest exited "
                           f"{out.returncode}: {out.stderr.strip()[-500:]}")
    return out.stdout.splitlines()


def diff_digests(parent: Path, change: Path, workloads: list[str],
                 seeds: list[int]) -> bool:
    """Print a diff per workload and seed; True when every line matches."""
    same = True
    for w in workloads:
        for seed in seeds:
            a = digest_lines(parent, w, seed)
            b = digest_lines(change, w, seed)
            if a == b:
                print(f"{w} seed {seed}: identical ({len(a)} solves)")
                continue
            same = False
            print(f"{w} seed {seed}: DIFFERENT")
            sys.stdout.writelines(line + "\n" for line in difflib.unified_diff(
                a, b, "parent", "change", lineterm=""))
    return same


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", type=Path, required=True)
    parser.add_argument("--change", type=Path, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=parse_seeds, required=True,
                        help='a range "201-210" or a list "1,4,7"')
    parser.add_argument("--digest", action="store_true",
                        help="diff trajectory digests instead of timing")
    args = parser.parse_args(argv)
    parent, change = args.parent.resolve(), args.change.resolve()
    if args.digest:
        return 0 if diff_digests(parent, change, args.workload,
                                 args.seeds) else 1
    runs = run_pairs(parent, change, args.workload, args.seeds)
    print_verdicts(verdicts(runs, metric_specs(parent)))
    print_groups(group_verdicts(runs))
    return 0


if __name__ == "__main__":
    sys.exit(main())
