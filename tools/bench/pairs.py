#!/usr/bin/env python3
"""Alternating parent/change pairs of the repo benchmark.

Usage:
    tools/bench/pairs.py PARENT_BIN CHANGE_BIN --workload W|all [--seed S]
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

Each end-to-end metric also gets a verdict against its `bound` in
BENCHMARK.json: `worse` when the change's median is worse than the
parent's by more than the bound, `unresolved` when the parent's own
interquartile range is wider than the bound (unless every change run
beats every parent run), and `ok` otherwise. `--workload all` runs every
workload BENCHMARK.json lists, one after the other, and ends with the
verdicts of all of them.

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


def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def directions(doc):
    """Metric name -> "higher" or "lower"."""
    return {m["name"]: m["better"] for m in doc["end_to_end"] + doc["per_layer"]}


def run(binary, workload, args):
    cmd = [
        binary,
        "--workload", workload,
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


def verdict(pv, cv, direction, bound):
    """`ok`, `worse` or `unresolved` for one end-to-end metric."""
    sign = 1 if direction == "higher" else -1
    (p1, pm, p3), (_, cm, _) = quartiles(pv), quartiles(cv)
    if sign * (pm - cm) > bound * abs(pm):
        return "worse"
    if p3 - p1 > bound * abs(pm) and not all(sign * (y - x) > 0 for x in pv for y in cv):
        return "unresolved"
    return "ok"


def measure(workload, args, better, bounds):
    """Runs the pairs of one workload and prints its table; returns its
    end-to-end verdicts and the pairs whose simulated results differ."""
    sides = {"parent": [], "change": []}
    mismatches = []
    for i in range(args.pairs):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        docs = {}
        for side in order:
            docs[side] = run(getattr(args, side), workload, args)
            sides[side].append(docs[side])
        a, b = pinned(docs["parent"]), pinned(docs["change"])
        diff = {k: (a.get(k), b.get(k)) for k in a.keys() | b.keys() if a.get(k) != b.get(k)}
        if diff:
            mismatches.append((workload, i, diff))
        # The traced invocation prints per-layer metrics only.
        wall = "wall_ops_per_s" if args.trace == 0 else "engine.wall_ns_per_event"
        print(
            f"{workload} pair {i + 1}/{args.pairs} ({order[0]} first): "
            f"{wall} {docs['parent']['metrics'][wall]['value']:.1f} -> "
            f"{docs['change']['metrics'][wall]['value']:.1f}",
            file=sys.stderr,
        )

    names = sorted(sides["parent"][0]["metrics"])
    n = args.pairs
    verdicts = {}
    print(f"{workload} seed {args.seed}, {n} pairs, --seconds {args.seconds} --trace {args.trace}")
    print(f"{'metric':44} {'parent q1 / median / q3':>34} {'change q1 / median / q3':>34} {'wins':>6}  gain / verdict")
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
        if name in bounds:
            verdicts[name] = verdict(pv, cv, direction, bounds[name])
            gain = " ".join(filter(None, (gain, verdicts[name])))
        fmt = lambda q: " / ".join(num(x) for x in q)
        print(f"{name:44} {fmt(pq):>34} {fmt(cq):>34} {wins:>6}  {gain}")
    print()
    return verdicts, mismatches


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
    doc = spec()
    better = directions(doc)
    bounds = {m["name"]: m["bound"] for m in doc["end_to_end"]}
    workloads = [w["name"] for w in doc["workloads"]] if args.workload == "all" else [args.workload]

    verdicts, mismatches = {}, []
    for workload in workloads:
        verdicts[workload], diffs = measure(workload, args, better, bounds)
        mismatches += diffs

    if verdicts and any(verdicts.values()):
        names = [m["name"] for m in doc["end_to_end"]]
        print(f"{'verdict':16} " + " ".join(f"{n:>18}" for n in names))
        for workload, row in verdicts.items():
            print(f"{workload:16} " + " ".join(f"{row.get(n, '-'):>18}" for n in names))

    if mismatches:
        for workload, i, diff in mismatches:
            for k, (x, y) in sorted(diff.items()):
                print(f"{workload} pair {i + 1}: {k} differs: parent {x}, change {y}", file=sys.stderr)
        sys.exit("simulated results differ within a pair")


if __name__ == "__main__":
    main()
