#!/usr/bin/env python3
"""Alternating parent/change pairs of the repo benchmark.

Usage:
    tools/bench/pairs.py PARENT_BIN CHANGE_BIN --workload W [--seed S]
                         [--pairs N] [--seconds T] [--trace 0|1]

PARENT_BIN and CHANGE_BIN are two builds of `benchmark/`'s binary (for
example `cargo build --release --offline --manifest-path
benchmark/Cargo.toml` in a checkout of each commit, each with its own
CARGO_TARGET_DIR). Pair i runs the parent first when i is even and the
change first when i is odd, so drift in the host's load falls on both
sides alike.

For every metric the benchmark prints, the script reports each side's
median and quartiles, and how many pairs the change won in the metric's
`better` direction from BENCHMARK.json (ties count for neither). A
metric shows `gain` when the change won at least nine tenths of the
pairs and the medians differ by more than the parent's interquartile
range (choosing-metrics, section 8).

Simulated results do not depend on the host: the script exits non-zero
if any `sim_*` metric, `attempted` or `failed` differs between the two
runs of a pair, or if a run reports itself incorrect.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def directions():
    """Metric name -> "higher" or "lower", from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}


def run(binary, args):
    cmd = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    out = subprocess.run(cmd, check=True, capture_output=True, text=True).stdout
    doc = json.loads(out.strip().splitlines()[-1])
    if not doc.get("correct", False):
        sys.exit(f"{binary}: the run reports itself incorrect")
    return doc


def pinned(doc):
    """What must be identical on both sides of a pair."""
    values = {k: doc[k] for k in ("attempted", "failed")}
    values.update(
        (k, m["value"]) for k, m in doc["metrics"].items() if k.startswith("sim_")
    )
    return values


def quartiles(xs):
    if len(xs) < 2:
        return xs[0], xs[0], xs[0]
    q1, q2, q3 = statistics.quantiles(xs, n=4, method="inclusive")
    return q1, q2, q3


def num(x):
    return f"{x:.1f}" if abs(x) >= 100 else f"{x:.4g}"


def main():
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--pairs", type=int, default=10)
    p.add_argument("--seconds", type=float, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args()
    better = directions()

    sides = {"parent": [], "change": []}
    mismatches = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        docs = {}
        for side in order:
            docs[side] = run(getattr(args, side), args)
            sides[side].append(docs[side])
        a, b = pinned(docs["parent"]), pinned(docs["change"])
        diff = {k: (a.get(k), b.get(k)) for k in a.keys() | b.keys() if a.get(k) != b.get(k)}
        if diff:
            mismatches.append((i, diff))
        # The traced invocation prints per-layer metrics only.
        wall = "wall_ops_per_s" if args.trace == 0 else "engine.wall_ns_per_event"
        print(
            f"pair {i + 1}/{args.pairs} ({order[0]} first): "
            f"{wall} {docs['parent']['metrics'][wall]['value']:.1f} -> "
            f"{docs['change']['metrics'][wall]['value']:.1f}",
            file=sys.stderr,
        )

    names = sorted(sides["parent"][0]["metrics"])
    n = args.pairs
    print(f"{args.workload} seed {args.seed}, {n} pairs, --seconds {args.seconds} --trace {args.trace}")
    print(f"{'metric':44} {'parent q1 / median / q3':>34} {'change q1 / median / q3':>34} {'wins':>6}  gain")
    for name in names:
        pv = [d["metrics"][name]["value"] for d in sides["parent"]]
        cv = [d["metrics"][name].get("value") for d in sides["change"] if name in d["metrics"]]
        if len(cv) != n:
            print(f"{name:44} missing on the change side")
            continue
        pq, cq = quartiles(pv), quartiles(cv)
        direction = better.get(name)
        if direction is None:
            wins, gain = "-", ""
        else:
            sign = 1 if direction == "higher" else -1
            won = sum(1 for x, y in zip(pv, cv) if sign * (y - x) > 0)
            wins = f"{won}/{n}"
            gain = "gain" if won * 10 >= 9 * n and sign * (cq[1] - pq[1]) > pq[2] - pq[0] else ""
        fmt = lambda q: " / ".join(num(x) for x in q)
        print(f"{name:44} {fmt(pq):>34} {fmt(cq):>34} {wins:>6}  {gain}")

    if mismatches:
        for i, diff in mismatches:
            for k, (x, y) in sorted(diff.items()):
                print(f"pair {i + 1}: {k} differs: parent {x}, change {y}", file=sys.stderr)
        sys.exit("simulated results differ within a pair")


if __name__ == "__main__":
    main()
