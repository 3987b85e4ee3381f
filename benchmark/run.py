#!/usr/bin/env python3
"""asfbench: the repository benchmark (benchmark/README.md).

Builds the simulator library and the benchmark driver from source, runs
each workload in its own driver process, checks every job's stats-blob
FNV against benchmark/goldens.json, and prints one JSON object per
workload with the metrics BENCHMARK.json names. It also writes
build/benchmark/results.json, the input of benchmark/compare.py.

  python3 benchmark/run.py [--workload NAME[,NAME...]] [--seed N]
                           [--seconds S] [--trace [0|1]] [--smoke]
                           [--update-goldens]

Run it from anywhere; paths resolve against the repository root.
"""
import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / "build"
OUT = BUILD / "benchmark"
DRIVER_BUILD = OUT / "driver"
DRIVER = DRIVER_BUILD / "asfbench"
GOLDENS = HERE / "goldens.json"
WORKLOADS = ["stamp-large", "kv-hot-update", "kv-wide-read", "paper-sweep"]
DRIVER_TIMEOUT_S = 160


def die(msg):
    print(f"asfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_json(path):
    with open(path) as f:
        return json.load(f)


def read_cmake_cache(path):
    entries = {}
    for line in path.read_text().splitlines():
        if line and not line.startswith(("#", "//")) and "=" in line:
            key, value = line.split("=", 1)
            entries[key.split(":", 1)[0]] = value
    return entries


def sh(cmd):
    """Runs a build step, its output on stderr (stdout carries results)."""
    try:
        subprocess.run([str(c) for c in cmd], stdout=sys.stderr, check=True)
    except (OSError, subprocess.CalledProcessError) as e:
        die(f"build step failed: {e}")


def build(nproc):
    """Builds libasfsim.a in the tier-1 tree, then the driver against it
    with that tree's compiler, build type and flags."""
    cache_path = BUILD / "CMakeCache.txt"
    if not cache_path.exists():
        sh(["cmake", "-B", BUILD, "-S", ROOT])
    cache = read_cmake_cache(cache_path)
    # The top-level CMakeLists.txt picks RelWithDebInfo when none is cached.
    build_type = cache.get("CMAKE_BUILD_TYPE") or "RelWithDebInfo"
    cache["CMAKE_BUILD_TYPE"] = build_type
    if build_type not in ("Release", "RelWithDebInfo"):
        die(f"{BUILD} is a '{build_type}' build; timing needs Release or "
            "RelWithDebInfo")
    if cache.get("ASFSIM_SANITIZE"):
        die(f"{BUILD} is a sanitizer build; timing needs a plain one")
    sh(["cmake", "--build", BUILD, "--target", "asfsim", "-j", nproc])
    sh(["cmake", "-S", HERE, "-B", DRIVER_BUILD,
        f"-DASFSIM_BUILD_DIR={BUILD}",
        f"-DCMAKE_BUILD_TYPE={build_type}",
        f"-DCMAKE_CXX_COMPILER={cache.get('CMAKE_CXX_COMPILER', 'c++')}",
        f"-DCMAKE_CXX_FLAGS={cache.get('CMAKE_CXX_FLAGS', '')}"])
    sh(["cmake", "--build", DRIVER_BUILD])
    return cache


def git(*args):
    if not (ROOT / ".git").exists():
        return None
    r = subprocess.run(["git", "-C", str(ROOT), *args],
                       capture_output=True, text=True)
    return r.stdout.strip() if r.returncode == 0 else None


def fnv1a64(text):
    h = 0xcbf29ce484222325
    for b in text.encode():
        h = ((h ^ b) * 0x100000001b3) & 0xFFFFFFFFFFFFFFFF
    return f"{h:016x}"


def run_driver(name, args):
    cmd = [DRIVER, "--workload", name, "--work-dir", OUT / "work" / name,
           "--seconds", args.seconds]
    if args.seed is not None:
        cmd += ["--seed", args.seed]
    if args.smoke:
        cmd.append("--smoke")
    if args.trace:
        cmd += ["--trace", OUT / "trace" / f"{name}.json"]
    try:
        proc = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE,
                              text=True, timeout=DRIVER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        die(f"{name}: driver exceeded {DRIVER_TIMEOUT_S} s")
    if proc.returncode != 0 or not proc.stdout.strip():
        die(f"{name}: driver exited with status {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def golden_checks(rows, expect, kernel_rows, where):
    """Checks each job's stats-blob FNV and, where it has one, its
    BENCH_kernel.json row; returns (checks made, failures)."""
    checks, failures = 0, []
    for job in rows:
        name = job["name"]
        checks += 1
        if name not in expect:
            failures.append(f"{where} {name}: no golden FNV recorded")
        elif job["fnv"] != expect[name]:
            failures.append(f"{where} {name}: stats FNV {job['fnv']} != "
                            f"golden {expect[name]}")
        row = kernel_rows.get(name)
        if row:
            checks += 1
        if row and (job["sim_cycles"], job["tx_commits"]) != (
                row["sim_cycles"], row["tx_commits"]):
            failures.append(
                f"{where} {name}: sim_cycles/tx_commits "
                f"{job['sim_cycles']}/{job['tx_commits']} != BENCH_kernel.json "
                f"{row['sim_cycles']}/{row['tx_commits']}")
    return checks, failures


def report(raw, spec, metrics, attempted, failed, outputs_fnv):
    """Human-readable summary on stderr."""
    seed = raw["seed"]
    print(f"\n== {raw['workload']}: seed {seed}, {raw['jobs']} jobs, "
          f"{raw['passes']} measured passes over {raw['cpus']} CPUs, "
          f"{raw['workers']} workers, host.calib_ns "
          f"{raw['calib_ns'][0]:.3f} -> {raw['calib_ns'][1]:.3f}",
          file=sys.stderr)
    for m in spec:
        name = m["name"]
        print(f"  {name:<28} {metrics[name]['value']:>14.6g} {m['unit']}",
              file=sys.stderr)
    for name, t in raw["timings"].items():
        if t["n"]:
            print(f"  samples {name:<20} median {t['median']:.6g} s, min "
                  f"{t['min']:.6g}, max {t['max']:.6g}, n {t['n']:.0f}",
                  file=sys.stderr)
    print(f"  fail_ratio {failed / attempted:.6g} ({failed} of "
          f"{attempted} checks failed)", file=sys.stderr)
    if seed != raw["default_seed"]:
        print(f"  outputs FNV {outputs_fnv} over {raw['jobs']} jobs at seed "
              f"{seed} (per job: {OUT / 'results.json'})", file=sys.stderr)


def main():
    bench = load_json(ROOT / "BENCHMARK.json")
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", "--workloads", dest="workloads",
                    action="append",
                    help="comma-separated workloads (default: all four)")
    ap.add_argument("--seed", type=int,
                    help="input seed (default: 42, or 1..8 for paper-sweep)")
    # BENCHMARK.json's runner passes run_seconds here; by hand, leave it out.
    ap.add_argument("--seconds", type=float,
                    help="measured time per workload (default: BENCHMARK.json "
                         "run_seconds; 0 in smoke mode)")
    ap.add_argument("--trace", nargs="?", const="1", default="0",
                    choices=["0", "1"],
                    help="add a traced replay and report per-layer metrics")
    ap.add_argument("--smoke", action="store_true",
                    help="about 1/16 of the work, every correctness check")
    ap.add_argument("--update-goldens", action="store_true",
                    help="re-record benchmark/goldens.json from this run")
    args = ap.parse_args()
    args.trace = args.trace == "1"
    if args.seconds is None:
        args.seconds = 0 if args.smoke else bench["run_seconds"]
    names = [w for arg in (args.workloads or [",".join(WORKLOADS)])
             for w in arg.split(",") if w]
    for name in names:
        if name not in WORKLOADS:
            die(f"unknown workload '{name}' (one of {', '.join(WORKLOADS)})")

    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die(f"no simulator sources under {ROOT}")
    nproc = len(os.sched_getaffinity(0))
    cache = build(nproc)

    mode = "smoke" if args.smoke else "full"
    goldens_doc = load_json(GOLDENS)
    kernel_rows = {}
    kernel_path = ROOT / "BENCH_kernel.json"
    if not args.smoke and kernel_path.exists():
        kernel_rows = {r["name"]: r for r in load_json(kernel_path)["rows"]}
    spec = bench["per_layer"] if args.trace else bench["end_to_end"]

    results = {}
    for name in names:
        raw = run_driver(name, args)
        at_default = raw["seed"] == raw["default_seed"]
        if args.update_goldens:
            if raw["failures"] or not at_default:
                die(f"{name}: goldens come from a clean default-seed run")
            for section, rows in (("smoke", raw["golden"]),
                                  (mode, raw["measured"])):
                goldens_doc[section][name] = {j["name"]: j["fnv"]
                                              for j in rows}
        # The smoke-size warm-up pins the simulator at every seed; the
        # measured jobs themselves have goldens only at the default seed.
        attempted, failures = raw["attempted"], list(raw["failures"])
        checks = [golden_checks(raw["golden"], goldens_doc["smoke"].get(
            name, {}), {}, "golden")]
        if at_default:
            checks.append(golden_checks(
                raw["measured"], goldens_doc[mode].get(name, {}),
                kernel_rows if name == "stamp-large" else {}, "measured"))
        for n, more in checks:
            attempted += n
            failures += more
        failed = len(failures)
        source = raw["per_layer"] if args.trace else raw["end_to_end"]
        missing = [m["name"] for m in spec if m["name"] not in source]
        if missing:
            die(f"{name}: driver reported no {', '.join(missing)}")
        metrics = {m["name"]: {"value": source[m["name"]], "unit": m["unit"]}
                   for m in spec}
        outputs_fnv = fnv1a64("".join(j["fnv"] for j in raw["measured"]))
        report(raw, spec, metrics, attempted, failed, outputs_fnv)
        for f in failures[:20]:
            print(f"  FAILED: {f}", file=sys.stderr)
        print(json.dumps({"correct": failed == 0,
                          "attempted": attempted,
                          "failed": failed,
                          "metrics": metrics}), flush=True)
        results[name] = {
            "seed": raw["seed"],
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "fail_ratio": failed / attempted,
            "failures": failures[:100],
            "passes": raw["passes"],
            "cpus": raw["cpus"],
            "workers": raw["workers"],
            "calib_ns": raw["calib_ns"],
            "outputs_fnv": outputs_fnv,
            "jobs": [{"name": j["name"], "fnv": j["fnv"]}
                     for j in raw["measured"]],
            **({"per_layer": raw["per_layer"]} if args.trace else
               {"end_to_end": raw["end_to_end"], "timings": raw["timings"]}),
        }

    if args.update_goldens:
        with open(GOLDENS, "w") as f:
            json.dump(goldens_doc, f, indent=1, sort_keys=True)
            f.write("\n")
    sha = git("rev-parse", "HEAD")
    doc = {
        "schema": "asfbench-results-v1",
        "git_sha": sha or "unknown",
        "git_dirty": (bool(git("status", "--porcelain", "--untracked-files=no"))
                      if sha else None),
        "build_type": cache.get("CMAKE_BUILD_TYPE"),
        "cxx_flags": " ".join(filter(None, [
            cache.get("CMAKE_CXX_FLAGS", ""),
            cache.get("CMAKE_CXX_FLAGS_" +
                      cache.get("CMAKE_BUILD_TYPE", "").upper(), "")])),
        "nproc": nproc,
        "mode": mode,
        "trace": args.trace,
        "seconds": args.seconds,
        "workloads": results,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    with open(OUT / "results.json", "w") as f:
        json.dump(doc, f, indent=1)
        f.write("\n")


if __name__ == "__main__":
    main()
