"""Alternating pairs of benchmark runs of two source trees.

    python3 tools/pairs.py PARENT CHANGE [--workload W ...] [--seed S ...]
        [--pairs N] [--seconds S]

PARENT and CHANGE are the roots of two source checkouts, each with its own
``perfbench/``.  For every seed and workload, ``perfbench/run.py --trace 0``
runs N times in each tree, alternately: parent, then change, then parent
again.  Each value is the median of one invocation's runs.  The output is
one JSON object, the ``end_to_end`` block of a ``BENCH_*.json`` file: per
seed, workload and end-to-end metric, both sides' values in run order,
their medians and quartiles (``statistics.quantiles(n=4)``), the pairs
that each side wins, and two verdicts: ``within_bound``, the change's
median at most the parent's times 1 + the metric's ``bound`` in CHANGE's
``BENCHMARK.json``, and ``gain_shown``, the change winning at least 9 in
10 of the pairs with a median below the parent's by more than the
parent's quartile spread.  Every end-to-end metric is better lower, and a
tie counts for neither side.  An invocation that reports an incorrect or
failed run stops the script.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

METRICS = ("run_s", "setup_s", "cpu_s", "peak_rss_mb")


def run_once(tree: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py --trace 0`` invocation in ``tree``: its metrics."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed",
         str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=tree, capture_output=True, text=True, check=True,
    )
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if not out["correct"] or out["failed"]:
        raise SystemExit(
            f"{tree}: {workload} at seed {seed} had {out['failed']} failed of "
            f"{out['attempted']} runs (correct: {out['correct']})"
        )
    return {name: out["metrics"][name]["value"] for name in METRICS}


def summarize(parent: list, change: list, bound: float) -> dict:
    """The paired summary of one metric, lower being better: values,
    medians and quartiles, rounded to 4 places, each side's wins, and the
    verdicts on the metric's ``bound`` (a fraction) and on a gain."""
    def rounded(values):
        return [round(v, 4) for v in values]

    def quartiles(values):
        q1, _, q3 = statistics.quantiles(values, n=4)
        return [q1, q3]

    parent_median, change_median = statistics.median(parent), statistics.median(change)
    q1, q3 = quartiles(parent)
    change_wins = sum(c < p for p, c in zip(parent, change))
    return {
        "parent": rounded(parent),
        "change": rounded(change),
        "parent_median": round(parent_median, 4),
        "change_median": round(change_median, 4),
        "parent_quartiles": rounded([q1, q3]),
        "change_quartiles": rounded(quartiles(change)),
        "change_wins": change_wins,
        "parent_wins": sum(p < c for p, c in zip(parent, change)),
        "pairs": len(parent),
        "within_bound": change_median <= parent_median * (1 + bound),
        "gain_shown": (
            10 * change_wins >= 9 * len(parent)
            and parent_median - change_median > q3 - q1
        ),
    }


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", nargs="+", default=["halfplane"])
    parser.add_argument("--seed", nargs="+", type=int, default=[3])
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seconds", type=float, default=5.0)
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least 2 pairs")
    declared = json.loads((args.change / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    block = {}
    for seed in args.seed:
        for workload in args.workload:
            runs = {"parent": [], "change": []}
            for _ in range(args.pairs):
                for side in runs:
                    tree = getattr(args, side)
                    runs[side].append(run_once(tree, workload, seed, args.seconds))
            block.setdefault(f"seed_{seed}", {})[workload] = {
                name: summarize(
                    [r[name] for r in runs["parent"]], [r[name] for r in runs["change"]],
                    bounds[name],
                )
                for name in METRICS
            }
    print(json.dumps(block, indent=2))


if __name__ == "__main__":
    main()
