"""Compare two checkouts on one benchmark workload by alternating pairs of
runs, and report each end-to-end metric's medians, quartiles and pairs won.

Usage, from anywhere:

    python3 tools/ab_pairs.py PARENT CHANGE --workload verify-all \
        --pairs 10 --seeds 0,1

Pair i runs ``python3 qcbench/run.py --workload W --seed S --seconds T
--trace 0`` once in each checkout, the parent first in even pairs and the
change first in odd ones, with S the seeds taken in turn. Each run's last
stdout line is the benchmark's JSON record. The run length T (its
run_seconds), the metric names and whether lower or higher is better come
from the change's BENCHMARK.json, so both sides run as long as the
benchmark sets. A pair is won by the side with the better value; a tie
counts for neither. A run that fails or reports failed operations stops
the comparison. The last stdout line is the whole comparison as JSON:
every pair's metrics and, per metric, each side's quartiles and the pairs
the change won.

Nothing is written here or in either checkout beyond what run.py writes.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The metric values, by name, of one untraced benchmark run."""
    argv = [
        sys.executable,
        "qcbench/run.py",
        "--workload",
        workload,
        "--seed",
        str(seed),
        "--seconds",
        str(seconds),
        "--trace",
        "0",
    ]
    proc = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: run.py exited {proc.returncode}\n{proc.stderr}")
    record = json.loads(proc.stdout.splitlines()[-1])
    if not record["correct"] or record["failed"]:
        raise RuntimeError(f"{checkout}: {record['failed']} failed operations")
    return {name: entry["value"] for name, entry in record["metrics"].items()}


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """(first quartile, median, third quartile), inclusive method."""
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seeds", default="0,1")
    args = parser.parse_args(argv)
    if args.pairs < 2:
        parser.error("quartiles need at least two pairs")

    seeds = [int(s) for s in args.seeds.split(",")]
    benchmark = json.loads((args.change / "BENCHMARK.json").read_text())
    seconds = benchmark["run_seconds"]
    better = {m["name"]: m["better"] for m in benchmark["end_to_end"]}
    sides = {"parent": args.parent, "change": args.change}
    runs = {"parent": [], "change": []}
    for i in range(args.pairs):
        seed = seeds[i % len(seeds)]
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            runs[side].append(run_once(sides[side], args.workload, seed, seconds))
        line = "  ".join(
            f"{side} {runs[side][-1]['wall_s']:.4f}" for side in ("parent", "change")
        )
        print(f"pair {i} seed {seed}: wall_s {line}", flush=True)

    print(f"{args.workload}, {args.pairs} pairs, seeds {seeds}, {seconds} s a run")
    print(f"{'metric':<12} {'parent q1/median/q3':>30} {'change q1/median/q3':>30} won")
    summary = {}
    for name, direction in better.items():
        parent = [r[name] for r in runs["parent"]]
        change = [r[name] for r in runs["change"]]
        sign = 1 if direction == "lower" else -1
        won = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
        summary[name] = {
            "parent": quartiles(parent),
            "change": quartiles(change),
            "pairs_won": won,
        }
        cells = [
            "/".join(f"{v:.4f}" for v in quartiles(values)) for values in (parent, change)
        ]
        print(f"{name:<12} {cells[0]:>30} {cells[1]:>30} {won}/{args.pairs}")
    # the whole comparison as one JSON line, the last line of stdout
    record = {
        "workload": args.workload,
        "seconds": seconds,
        "pairs": [
            {
                "pair": i,
                "seed": seeds[i % len(seeds)],
                "first": "parent" if i % 2 == 0 else "change",
                "parent": runs["parent"][i],
                "change": runs["change"][i],
            }
            for i in range(args.pairs)
        ],
        "summary": summary,
    }
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
