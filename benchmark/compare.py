#!/usr/bin/env python3
"""A/B checker for asfbench results (benchmark/README.md, "Comparing two
commits").

  python3 benchmark/compare.py --parent P1.json P2.json ... \\
                               --change C1.json C2.json ...

Each file is a build/benchmark/results.json of one run; files pair up by
position, so run the two sides alternately (P1 C1 C2 P2 P3 C3 ...). Per
workload and end-to-end metric it prints each side's median and quartiles
and a verdict:

  gain        the change wins >= 9 in 10 pairs (at least 10 pairs) and the
              medians differ by more than the parent's quartile distance
  regression  the change's median is worse than the parent's by more than
              the metric's bound in BENCHMARK.json
  unresolved  a side's quartile distance exceeds the bound
  ok (every run better)
              a side's quartile distance exceeds the bound, but every
              change run beats every parent run: not a regression, and
              not a gain either
  ok          none of the above
  n<3         too few pairs to judge timings

It also checks that both sides computed byte-identical stats (per-job
FNVs, when their seeds match) and that fail_ratio did not rise, and prints
each pair's host.calib_ns for judging host drift; nothing is normalised by
it. Exits 1 on a regression, an output mismatch or a fail_ratio increase,
and refuses files measured for different --seconds or modes.
"""
import argparse
import json
import statistics
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path):
    with open(path) as f:
        return json.load(f)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def verdict(metric, parent, change):
    """Verdict and the change's relative worsening of the median."""
    lower = metric["better"] == "lower"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = (c_med - p_med) / p_med if lower else (p_med - c_med) / p_med
    if len(parent) < 3:
        return "n<3", worse

    def better(c, p):
        return c < p if lower else c > p

    p_q1, p_q3 = quartiles(parent)
    c_q1, c_q3 = quartiles(change)
    spread = max((p_q3 - p_q1) / p_med, (c_q3 - c_q1) / c_med)
    if spread > metric["bound"]:
        if all(better(c, p) for c in change for p in parent):
            return "ok (every run better)", worse
        return "unresolved", worse
    if worse > metric["bound"]:
        return "regression", worse
    wins = sum(better(c, p) for c, p in zip(change, parent))
    if (len(parent) >= 10 and wins >= 0.9 * len(parent)
            and abs(c_med - p_med) > p_q3 - p_q1 and worse < 0):
        return "gain", worse
    return "ok", worse


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--parent", nargs="+", required=True)
    ap.add_argument("--change", nargs="+", required=True)
    args = ap.parse_args()
    if len(args.parent) != len(args.change):
        sys.exit("compare: --parent and --change need the same number of "
                 "files")
    bench = load(BENCH)
    parents = [load(p) for p in args.parent]
    changes = [load(c) for c in args.change]
    for key in ("seconds", "mode"):
        seen = {d.get(key) for d in parents + changes}
        if len(seen) > 1:
            sys.exit(f"compare: the files mix {key} {sorted(map(str, seen))}; "
                     "measure both sides alike")
    pairs = list(zip(parents, changes))
    print(f"{len(pairs)} pairs; parent {parents[0].get('git_sha', '?')[:12]} "
          f"vs change {changes[0].get('git_sha', '?')[:12]}")

    failed = False
    summary = []
    workloads = [w for w in parents[0]["workloads"]
                 if all(w in d["workloads"] for d in parents + changes)]
    for w in workloads:
        ps = [p["workloads"][w] for p in parents]
        cs = [c["workloads"][w] for c in changes]
        print(f"\n== {w}")

        mismatched = [i + 1 for i, (p, c) in enumerate(zip(ps, cs))
                      if p["seed"] == c["seed"] and p["jobs"] != c["jobs"]]
        p_fail = max(p["fail_ratio"] for p in ps)
        c_fail = max(c["fail_ratio"] for c in cs)
        outputs = "differ in pairs " + str(mismatched) if mismatched else \
            "identical"
        print(f"  outputs {outputs}; fail_ratio parent {p_fail:.3g} -> "
              f"change {c_fail:.3g}")
        row = [f"outputs {'DIFFER' if mismatched else 'same'}"]
        if c_fail > p_fail:
            row.append("fail_ratio UP")
        failed |= bool(mismatched) or c_fail > p_fail

        if all("end_to_end" in r for r in ps + cs):
            print(f"  {'metric':<24} {'parent median [q1, q3]':>34} "
                  f"{'change median [q1, q3]':>34} {'worse':>8}  verdict")
            for m in bench["end_to_end"]:
                pv = [p["end_to_end"][m["name"]] for p in ps]
                cv = [c["end_to_end"][m["name"]] for c in cs]
                v, worse = verdict(m, pv, cv)
                failed |= v == "regression"
                cols = []
                for vals in (pv, cv):
                    q1, q3 = quartiles(vals)
                    cols.append(f"{statistics.median(vals):.5g} "
                                f"[{q1:.5g}, {q3:.5g}]")
                print(f"  {m['name']:<24} {cols[0]:>34} {cols[1]:>34} "
                      f"{worse:>+8.2%}  {v} (bound {m['bound']:.0%})")
                row.append(f"{m['name']}={v}")
        else:
            print("  (traced results carry no end-to-end metrics)")
        for i, (p, c) in enumerate(zip(ps, cs)):
            print(f"  pair {i + 1:>2}: host.calib_ns parent "
                  f"{p['calib_ns'][0]:.3f}/{p['calib_ns'][1]:.3f}, change "
                  f"{c['calib_ns'][0]:.3f}/{c['calib_ns'][1]:.3f} "
                  "(before/after)")
        summary.append((w, row))

    print("\nsummary")
    for w, row in summary:
        print(f"  {w:<14} " + "  ".join(row))
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
