#!/usr/bin/env python3
"""Turn a `profile.<pid>.txt` written by sampler.c into shares of samples.

Usage:
    symbolize.py PROFILE [--top N]            self and inclusive shares
    symbolize.py PROFILE --callers PATTERN    who calls functions matching PATTERN
    symbolize.py PROFILE --under PATTERN      leaves and direct callees under PATTERN
    symbolize.py PROFILE --crates             self and inclusive shares per crate
    symbolize.py ALLOCS --sites               allocation sites (allocs.c output)

A function's *self* share is the fraction of samples whose leaf frame is
in it; its *inclusive* share is the fraction of samples with it anywhere on
the stack (counted once per sample, however deep the recursion). Symbols
come from `nm -C` of every executable mapping in the profile's copy of
/proc/self/maps; an address with no symbol is reported as `[file]`.

`--sites` reads the `allocs.<pid>.txt` that allocs.c writes, in the same
format, and charges each sampled allocation to its *site*: the first frame
outside the standard library (`std`, `core`, `alloc`, `hashbrown`) and the
allocator. A `Vec` grown by `Wire::to_bytes` counts as `Wire::to_bytes`.
With `--crates` as well, sites are per crate.
"""

import argparse
import bisect
import collections
import re
import subprocess
import sys

HASH = re.compile(r"::h[0-9a-f]{16}$")
# What allocates on someone else's behalf: the standard library's crates,
# the allocator entry points, and frames with no symbol.
RUNTIME_CRATES = {"std", "core", "alloc", "hashbrown"}
ALLOCATOR = re.compile(r"^(__rust_|__rdl_|__rg_|malloc$|calloc$|realloc$|\[)")
# A runtime trait implemented for a bare type parameter, such as
# `<I as alloc::sync::ToArcSlice<T>>::to_arc_slice`.
GENERIC_IMPL = re.compile(r"^<[A-Z]\w* as (?:std|core|alloc|hashbrown)::")


class Image:
    """The text symbols of one mapped file, by address relative to its base."""

    def __init__(self, path):
        self.path = path
        self.addrs, self.names = [], []
        rows = []
        for flags in (["--defined-only"], ["-D", "--defined-only"]):
            out = subprocess.run(
                ["nm", "-C", "-n", *flags, path], capture_output=True, text=True
            ).stdout
            for line in out.splitlines():
                parts = line.split(" ", 2)
                if len(parts) == 3 and parts[1] in "tTwWi":
                    rows.append((int(parts[0], 16), HASH.sub("", parts[2])))
            if rows:
                break
        rows.sort()
        for addr, name in rows:
            self.addrs.append(addr)
            self.names.append(name)

    def name(self, rel):
        i = bisect.bisect_right(self.addrs, rel) - 1
        return self.names[i] if i >= 0 else f"[{self.path.rsplit('/', 1)[-1]}]"


def load(path):
    """The executable mappings (start, end, base, path) and the samples."""
    mappings, bases, samples = [], {}, []
    with open(path) as f:
        for line in f:
            if line.startswith("--"):
                break
            fields = line.split()
            if len(fields) < 6 or not fields[5].startswith("/"):
                continue
            lo, hi = (int(x, 16) for x in fields[0].split("-"))
            offset = int(fields[2], 16)
            # The file's first mapping (offset 0) is its load base: the
            # addresses `nm` prints are relative to it.
            if offset == 0:
                bases.setdefault(fields[5], lo)
            if "x" in fields[1]:
                mappings.append((lo, hi, fields[5]))
        for line in f:
            samples.append([int(x, 16) for x in line.split()])
    mappings.sort()
    return [(lo, hi, bases.get(p, lo), p) for lo, hi, p in mappings], samples


def symbolizer(mappings):
    images, cache = {}, {}
    starts = [m[0] for m in mappings]

    def name(addr):
        if addr in cache:
            return cache[addr]
        i = bisect.bisect_right(starts, addr) - 1
        if i < 0 or addr >= mappings[i][1]:
            result = "[unknown]"
        else:
            _, _, base, path = mappings[i]
            if path not in images:
                images[path] = Image(path)
            result = images[path].name(addr - base)
        cache[addr] = result
        return result

    return name


def crate_of(name):
    """The crate a demangled name belongs to: its first path segment."""
    m = re.match(r"[<&\s]*(?:impl\s+)?(?:dyn\s+)?([A-Za-z_][A-Za-z0-9_]*)::", name)
    return m.group(1) if m else name


def site_of(stack):
    """The first frame of `stack` (innermost first) that is not runtime."""
    for name in stack:
        runtime = crate_of(name) in RUNTIME_CRATES or GENERIC_IMPL.match(name)
        if not runtime and not ALLOCATOR.match(name):
            return name
    return "[runtime]"


def outermost(pattern, stack):
    """The depth of the outermost frame matching `pattern`, or None."""
    for depth in range(len(stack) - 1, -1, -1):
        if pattern.search(stack[depth]):
            return depth
    return None


def table(title, counter, total, top):
    print(f"{title} ({total} samples)")
    for name, count in counter.most_common(top):
        print(f"{100.0 * count / total:6.1f} %  {count:7d}  {name}")
    print()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("profile")
    ap.add_argument("--top", type=int, default=25)
    ap.add_argument("--callers", metavar="PATTERN")
    ap.add_argument("--under", metavar="PATTERN")
    ap.add_argument("--crates", action="store_true")
    ap.add_argument("--sites", action="store_true")
    args = ap.parse_args()

    mappings, samples = load(args.profile)
    if not samples:
        sys.exit("no samples in " + args.profile)
    name = symbolizer(mappings)
    stacks = [[name(a) for a in s] for s in samples]
    if args.crates:
        stacks = [[crate_of(n) for n in s] for s in stacks]
    total = len(stacks)

    # Both pattern options anchor on the outermost matching frame, so
    # recursion counts once.
    if args.callers:
        pattern = re.compile(args.callers)
        callers, hits = collections.Counter(), 0
        for stack in stacks:
            depth = outermost(pattern, stack)
            if depth is not None:
                hits += 1
                callers[stack[depth + 1] if depth + 1 < len(stack) else "[root]"] += 1
        print(f"{100.0 * hits / total:.1f} % of samples are in {args.callers!r}")
        table("callers of the outermost match", callers, hits or 1, args.top)
        return

    if args.under:
        pattern = re.compile(args.under)
        leaves, callees, hits = collections.Counter(), collections.Counter(), 0
        for stack in stacks:
            depth = outermost(pattern, stack)
            if depth is not None:
                hits += 1
                leaves[stack[0]] += 1
                # A sample whose leaf is the match itself is its own time.
                callees[stack[depth - 1] if depth > 0 else "[self]"] += 1
        print(f"{100.0 * hits / total:.1f} % of samples are under {args.under!r}")
        table("leaf functions under the outermost match", leaves, hits or 1, args.top)
        table("direct callees of the outermost match", callees, hits or 1, args.top)
        return

    if args.sites:
        table("allocation sites", collections.Counter(map(site_of, stacks)), total, args.top)
        return

    own = collections.Counter(s[0] for s in stacks)
    inclusive = collections.Counter(n for s in stacks for n in set(s))
    table("self", own, total, args.top)
    table("inclusive", inclusive, total, args.top)


if __name__ == "__main__":
    main()
