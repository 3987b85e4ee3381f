#!/usr/bin/env python3
"""Output-identity gate: every figure, CSV and chaos verdict is pinned.

Runs every `asfsim_fig` figure with `--jobs 4 --no-cache --csv <dir>` at
`--scale 0.25` and at `--scale 1`, plus `asfsim_chaos matrix --verbose
--seeds 1,9,23,57`, and compares one FNV-1a 64 hash per figure stdout, per
CSV and for the chaos matrix against tests/goldens/outputs.fnv. The
`--scale 0.25` sweep runs a second time with `--jobs 1`, which must give the
same hashes.

Exactly one field is masked before hashing: the `Host ms` column of
ablation_overhead's tracing table, a host wall time.

Usage:
  scripts/check_outputs.py --fig build/bench/asfsim_fig \\
                           --chaos build/tools/asfsim_chaos [--update]

--update rewrites the golden file and names the artifacts that moved.
Exit status: 0 when every hash matches (or after --update), 1 otherwise.
"""

import argparse
import os
import re
import subprocess
import sys
import tempfile

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..",
                      "tests", "goldens", "outputs.fnv")
SCALES = ("0.25", "1")
CHAOS_ARGS = ["matrix", "--verbose", "--seeds", "1,9,23,57"]


def fnv1a64(data):
    h = 0xCBF29CE484222325
    for b in data:
        h = ((h ^ b) * 0x100000001B3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def mask_host_ms(text):
    """Blank ablation_overhead's `Host ms` column (and the column widths it
    drives) in the tracing-overhead table."""
    lines = text.split("\n")
    out = []
    col = None  # index of the Host ms column while inside the table
    for line in lines:
        cells = re.split(r"  +", line.rstrip())
        if "Host ms" in cells:
            col = cells.index("Host ms")
        elif col is not None and set(line) == {"-"}:
            out.append("-")  # the rule's width follows the column widths
            continue
        elif col is not None and len(cells) <= col:
            col = None
        if col is not None:
            cells[col] = "<host ms>"
            line = "  ".join(cells)
        out.append(line)
    return "\n".join(out)


def run(cmd):
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    if r.returncode != 0:
        sys.exit(f"check_outputs: {' '.join(cmd)} exited {r.returncode}:\n"
                 + r.stderr.decode(errors="replace"))
    return r.stdout


def sweep(fig, scale, jobs):
    """Hashes of every figure's stdout and CSVs at one scale."""
    names = run([fig, "--list"]).decode().split()
    hashes = {}
    with tempfile.TemporaryDirectory(prefix="asfsim-outputs-") as csv_dir:
        for name in names:
            out = run([fig, name, "--scale", scale, "--jobs", str(jobs),
                       "--no-cache", "--csv", csv_dir])
            if name == "ablation_overhead":
                out = mask_host_ms(out.decode()).encode()
            hashes[f"fig/{name}@{scale}"] = fnv1a64(out)
        for csv in sorted(os.listdir(csv_dir)):
            with open(os.path.join(csv_dir, csv), "rb") as f:
                hashes[f"csv/{csv}@{scale}"] = fnv1a64(f.read())
    return hashes


def load(path):
    golden = {}
    with open(path) as f:
        for line in f:
            line = line.split("#", 1)[0].strip()
            if line:
                key, value = line.split()
                golden[key] = value
    return golden


def diff(want, got):
    return sorted(k for k in set(want) | set(got) if want.get(k) != got.get(k))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--fig", required=True, help="asfsim_fig binary")
    ap.add_argument("--chaos", required=True, help="asfsim_chaos binary")
    ap.add_argument("--update", action="store_true",
                    help="rewrite the golden file instead of checking it")
    args = ap.parse_args()

    got = {}
    for scale in SCALES:
        got.update(sweep(args.fig, scale, 4))
    got["chaos/matrix"] = fnv1a64(run([args.chaos] + CHAOS_ARGS))
    old = load(GOLDEN) if os.path.exists(GOLDEN) else {}
    moved = diff(old, got)

    if args.update:
        with open(GOLDEN, "w") as f:
            f.write("# FNV-1a 64 of each asfsim_fig stdout and CSV (--jobs 4 "
                    "--no-cache, at --scale 0.25\n# and 1) and of asfsim_chaos "
                    "matrix --verbose --seeds 1,9,23,57. Regenerate with\n"
                    "# scripts/check_outputs.py --fig <asfsim_fig> --chaos "
                    "<asfsim_chaos> --update\n")
            for key in sorted(got):
                f.write(f"{key} {got[key]}\n")
        for key in moved:
            print(f"moved: {key}")
        print(f"check_outputs: wrote {len(got)} hashes, {len(moved)} moved")
        return 0

    serial = sweep(args.fig, SCALES[0], 1)
    jobs_moved = diff({k: got[k] for k in serial}, serial)
    for key in moved:
        print(f"moved: {key} (golden {old.get(key, '-')}, "
              f"now {got.get(key, '-')})")
    for key in jobs_moved:
        print(f"jobs-dependent: {key} differs between --jobs 4 and --jobs 1")
    if moved or jobs_moved:
        print(f"check_outputs: FAIL ({len(moved)} moved, {len(jobs_moved)} "
              "jobs-dependent); if the change is intended, rerun with "
              "--update")
        return 1
    print(f"check_outputs: {len(got)} hashes match; --jobs 1 agrees")
    return 0


if __name__ == "__main__":
    sys.exit(main())
