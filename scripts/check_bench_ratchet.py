#!/usr/bin/env python3
"""Kernel-throughput perf ratchet (docs/performance.md).

Compares a fresh kernel_throughput measurement against the rows committed
in BENCH_kernel.json and fails when any cell regressed by more than the
allowed fraction (default 10%).

CI hosts and the machines that produced the committed rows run at
different speeds, so raw cycles-per-host-second are not comparable across
machines. The ratchet normalizes for host speed first: it computes the
per-cell ratio fresh/committed, takes the MEDIAN ratio as the host-speed
factor (if this host is uniformly 1.7x faster, every cell shows ~1.7), and
then flags cells whose own ratio falls more than the threshold below that
median. A true regression slows down *specific* cells relative to the
rest; a faster or slower host moves all cells together and passes.

Usage:
  bench/kernel_throughput --repeat 3 > fresh.json
  scripts/check_bench_ratchet.py fresh.json [--committed BENCH_kernel.json]
                                 [--threshold 0.10]

--committed defaults to the repository's BENCH_kernel.json wherever the
script is run from.

Exit status: 0 when no cell regressed, 1 otherwise (and on a missing,
unreadable or malformed file, with one "ratchet: cannot read" line).
"""

import argparse
import json
import pathlib
import statistics
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent


class Unreadable(Exception):
    pass


def load_rows(path):
    try:
        with open(path) as f:
            doc = json.load(f)
        rows = doc["rows"] if isinstance(doc, dict) else doc
        return {r["name"]: float(r["sim_cycles_per_host_sec"]) for r in rows}
    except OSError as e:
        raise Unreadable(f"ratchet: cannot read {path}: {e.strerror}")
    except (ValueError, KeyError, TypeError) as e:
        raise Unreadable(f"ratchet: cannot read {path}: {e!r}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("fresh", help="fresh kernel_throughput JSON (rows array "
                                  "or full BENCH_kernel.json document)")
    ap.add_argument("--committed", default=str(REPO_ROOT / "BENCH_kernel.json"),
                    help="committed benchmark file (default: the repository's "
                         "BENCH_kernel.json)")
    ap.add_argument("--threshold", type=float, default=0.10,
                    help="allowed fractional regression below the host-speed "
                         "median (default 0.10)")
    args = ap.parse_args()

    try:
        committed = load_rows(args.committed)
        fresh = load_rows(args.fresh)
    except Unreadable as e:
        print(e, file=sys.stderr)
        return 1

    common = sorted(set(committed) & set(fresh))
    if len(common) < 2:
        print(f"ratchet: only {len(common)} comparable cells between "
              f"{args.committed} and {args.fresh}; need >= 2", file=sys.stderr)
        return 1
    missing = sorted(set(committed) - set(fresh))
    if missing:
        print(f"ratchet: fresh run is missing committed cells: "
              f"{', '.join(missing)}", file=sys.stderr)
        return 1

    ratios = {name: fresh[name] / committed[name] for name in common}
    host_factor = statistics.median(ratios.values())
    floor = host_factor * (1.0 - args.threshold)

    failed = []
    for name in common:
        rel = ratios[name] / host_factor
        mark = "OK " if ratios[name] >= floor else "REG"
        print(f"  {mark} {name:30s} committed={committed[name]:>12.3e} "
              f"fresh={fresh[name]:>12.3e} ratio={ratios[name]:5.2f} "
              f"(vs host median {host_factor:5.2f}: {rel:5.2f})")
        if ratios[name] < floor:
            failed.append(name)

    if failed:
        print(f"ratchet: {len(failed)} cell(s) regressed >"
              f"{args.threshold:.0%} below the host-speed median "
              f"({host_factor:.2f}): {', '.join(failed)}", file=sys.stderr)
        return 1
    print(f"ratchet: all {len(common)} cells within {args.threshold:.0%} of "
          f"the host-speed median ({host_factor:.2f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
