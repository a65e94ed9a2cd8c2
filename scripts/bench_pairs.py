#!/usr/bin/env python3
"""Alternating benchmark pairs between a parent checkout and this checkout.

Usage (from anywhere):

    python3 scripts/bench_pairs.py PARENT_CHECKOUT --pairs N --seconds S \\
        --workload W [--workload W2 ...] [--seed-base B]

Pair i runs ``python3 bench/run.py --workload W --seed B+i --seconds S
--trace 0`` once in each checkout, the parent first in even pairs and this
checkout first in odd ones, so that slow drift of the host falls on both
sides alike.  Each run's end-to-end metrics (the names, units and better
directions listed in this checkout's BENCHMARK.json) and the host-loop
timings that ``bench/run.py`` prints at the start and end of a run are
collected.  The summary per workload and metric gives both sides' median
and quartiles over the pairs, the parent's IQR (the distance between its
quartiles), the relative change of the medians, the number of pairs each
side won (ties count for neither) and a verdict:

* ``gain`` when the change wins at least nine tenths of the pairs and its
  median is better than the parent's by more than the parent's IQR;
* ``worse`` when the change's median is worse than the parent's by more
  than the metric's bound in BENCHMARK.json (a fraction of the parent's
  median);
* ``within bound`` otherwise.

Writes ``BENCH_<short-sha>.json`` at the root of this checkout, named after
its HEAD commit, and prints the summary.  Either side's sha gets a
``-dirty`` suffix when its tracked files differ from its HEAD commit, so a
run from an uncommitted tree is not filed under the commit it started from.  Exits 1 if any run failed or
reported a wrong output.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
HOST_LOOP = re.compile(r"host Fraction loop \(ms[^)]*\): start ([\d.]+), end ([\d.]+)")


def git_sha(checkout: Path) -> str:
    """Short HEAD sha, with ``-dirty`` when tracked files differ from it."""
    def git(*args):
        return subprocess.run(["git", *args], cwd=checkout,
                              capture_output=True, text=True).stdout.strip()

    sha = git("rev-parse", "--short", "HEAD") or "unknown"
    return sha + "-dirty" if git("status", "--porcelain", "--untracked-files=no") else sha


def run_bench(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``bench/run.py --trace 0`` run: its metrics, verdict and host-loop timings."""
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=seconds * 4 + 600,
    )
    lines = proc.stdout.strip().splitlines() or [""]
    try:
        result = json.loads(lines[-1])
    except ValueError:
        result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    host = HOST_LOOP.search(proc.stdout)
    return {
        "exit": proc.returncode,
        "correct": bool(result.get("correct")) and proc.returncode == 0,
        "attempted": result.get("attempted", 0),
        "failed": result.get("failed", 0),
        "metrics": {name: m["value"] for name, m in result.get("metrics", {}).items()},
        "host_loop_ms": [float(host.group(1)), float(host.group(2))] if host else None,
    }


def quartiles(values):
    if len(values) < 2:
        return [values[0], values[0]] if values else [None, None]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return [q[0], q[2]]


def wins(parent, change, better):
    """(pairs the change won, pairs the parent won); ties count for neither."""
    sign = 1 if better == "lower" else -1
    return (sum(sign * (c - p) < 0 for p, c in zip(parent, change)),
            sum(sign * (c - p) > 0 for p, c in zip(parent, change)))


def verdict(parent, change, better, bound):
    """``gain``, ``worse`` or ``within bound`` for one metric, from its values
    on both sides of the same pairs (see the module docstring)."""
    low, high = quartiles(parent)
    # positive when the change's median is worse
    delta = (statistics.median(change) - statistics.median(parent)) * (
        1 if better == "lower" else -1)
    if 10 * wins(parent, change, better)[0] >= 9 * len(parent) and -delta > high - low:
        return "gain"
    if delta > bound * abs(statistics.median(parent)):
        return "worse"
    return "within bound"


def summarize(pairs, metrics):
    """Per metric: both sides' values over the pairs, medians, quartiles,
    the parent's IQR, the relative change of the medians, wins and verdict."""
    summary = {}
    for name, spec in metrics.items():
        parent = [p["parent"]["metrics"].get(name) for p in pairs]
        change = [p["change"]["metrics"].get(name) for p in pairs]
        if None in parent or None in change:
            continue
        change_wins, parent_wins = wins(parent, change, spec["better"])
        parent_median, change_median = statistics.median(parent), statistics.median(change)
        low, high = quartiles(parent)
        summary[name] = {
            "unit": spec["unit"],
            "better": spec["better"],
            "bound": spec["bound"],
            "parent": parent,
            "change": change,
            "parent_median": parent_median,
            "change_median": change_median,
            "parent_quartiles": [low, high],
            "change_quartiles": quartiles(change),
            "parent_iqr": high - low,
            "relative_change": ((change_median - parent_median) / parent_median
                                if parent_median else None),
            "change_wins": change_wins,
            "parent_wins": parent_wins,
            "verdict": verdict(parent, change, spec["better"], spec["bound"]),
        }
    return summary


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path, help="root of the parent checkout")
    parser.add_argument("--pairs", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seed-base", type=int, default=9001)
    args = parser.parse_args(argv)
    parent = args.parent.resolve()
    if not (parent / "bench" / "run.py").is_file():
        parser.error(f"{parent} has no bench/run.py")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in declared["end_to_end"]}

    doc = {
        "change": {"sha": git_sha(ROOT)},
        "parent": {"sha": git_sha(parent)},
        "pairs": args.pairs,
        "seconds": args.seconds,
        "seed_base": args.seed_base,
        "workloads": {},
    }
    ok = True
    for workload in args.workload:
        pairs = []
        for i in range(args.pairs):
            seed = args.seed_base + i
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            runs = {}
            for side in order:
                runs[side] = run_bench(parent if side == "parent" else ROOT,
                                       workload, seed, args.seconds)
                ok = ok and runs[side]["correct"]
            pairs.append({"seed": seed, "order": order, **runs})
            p50 = {side: runs[side]["metrics"].get("op_ms_p50") for side in order}
            print(f"{workload} pair {i + 1}/{args.pairs} seed {seed}: op_ms_p50 "
                  f"parent {p50['parent']} change {p50['change']}", flush=True)
        doc["workloads"][workload] = {"pairs": pairs, "summary": summarize(pairs, metrics)}

    out = ROOT / f"BENCH_{doc['change']['sha']}.json"
    out.write_text(json.dumps(doc, indent=2) + "\n")
    for workload, data in doc["workloads"].items():
        for name, s in data["summary"].items():
            relative = ("n/a" if s["relative_change"] is None
                        else f"{s['relative_change']:+.1%}")
            print(f"{workload} {name}: parent {s['parent_median']:.4g} "
                  f"(quartiles {s['parent_quartiles'][0]:.4g}..{s['parent_quartiles'][1]:.4g}, "
                  f"IQR {s['parent_iqr']:.4g}) change {s['change_median']:.4g} {s['unit']} "
                  f"({relative}); change wins {s['change_wins']}/{args.pairs}; "
                  f"{s['verdict']} (bound {s['bound']:.0%})")
    print(f"wrote {out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
