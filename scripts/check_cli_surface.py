#!/usr/bin/env python3
"""Command-line fuzz of every simulator binary, driven by its own --help.

Each binary (and each subcommand of asfsim_chaos and asfsim_trace) declares
its flags once in src/harness/args.hpp terms; `--help` prints them as a
"usage: <prog> [<command>] ..." line followed by one "  --flag [metavar]"
line per flag. For every section this script checks that

  * a flag that takes a value, given last, prints exactly one
    "missing value for <flag>" line and exits 2 (switches are skipped: they
    would start a run);
  * a number flag (metavar n, f or n,n,...) given "x1", or a value that
    overflows its type (99999999999999999999999 for integers, 1e999 for
    reals), prints exactly one "bad value for <flag>" line and exits 2;
  * an enumerated flag (metavar a|b|...) given an unknown name prints
    exactly one "bad value for <flag>" line and exits 2;
  * every flag that another binary lists but this one does not prints
    exactly one "unknown flag <flag>" line and exits 2, so --help lists
    every flag a binary accepts and no other;

and then runs a fixed list of range and positional cases. Every case must
also leave stdout empty. Cases run one process at a time, each under a short
timeout, so a misparse that starts a simulation fails instead of running.

Usage: check_cli_surface.py <binary>...   (the binaries named in FIXED below)
"""
import os
import subprocess
import sys

TIMEOUT_S = 20
NUMBER_METAVARS = {"n": "99999999999999999999999",
                   "n,n,...": "99999999999999999999999",
                   "f": "1e999"}

# (binary, args, expected stderr substring): one line, exit 2, no stdout.
FIXED = [
    ("asfsim_chaos", ["cell", "--ntx", "-1"], "bad value for --ntx"),
    ("asfsim_chaos", ["cell", "--nsub", "4294967300"], "bad value for --nsub"),
    ("asfsim_chaos", ["cell", "--nsub", "0"], "bad value for --nsub"),
    ("asfsim_chaos", ["cell", "--cm-karma", "4294967296"],
     "bad value for --cm-karma"),
    ("asfsim_chaos", ["cell", "--cm-max-retries", "-1"],
     "bad value for --cm-max-retries"),
    ("asfsim_chaos", ["cell", "--max-tx-retries", "-2"],
     "bad value for --max-tx-retries"),
    ("asfsim_chaos", ["cell", "--mutate", "no-such-mutation"],
     "bad value for --mutate"),
    ("asfsim_chaos", ["cell", "--cm-policy", "no-such-policy"],
     "bad value for --cm-policy"),
    ("asfsim_chaos", ["matrix", "--ntx", "0"], "bad value for --ntx"),
    ("asfsim_chaos", ["matrix", "--seeds", "1,x,3"], "bad value for --seeds"),
    ("asfsim_chaos", ["matrix", "--audit", "-5"], "bad value for --audit"),
    # Sub-block counts are powers of two up to kMaxSubBlocks (16).
    ("asfsim_chaos", ["cell", "--detector", "subblock", "--nsub", "32"],
     "bad value for --nsub"),
    ("asfsim_chaos", ["cell", "--nsub", "3"], "bad value for --nsub"),
    ("asfsim_explore", ["--nsub", "32"], "bad value for --nsub"),
    ("asfsim_explore", ["--nsub", "3"], "bad value for --nsub"),
    # A sub-blocking detector needs at least 2, whatever the flag order
    # (subblock is cell's default detector).
    ("asfsim_chaos", ["cell", "--nsub", "1"], "bad value for --nsub"),
    ("asfsim_explore", ["--detector", "subblock", "--nsub", "1"],
     "bad value for --nsub"),
    ("asfsim_explore", ["--nsub", "1", "--detector", "subblock"],
     "bad value for --nsub"),
    ("asfsim_trace", ["summarize", "t.jsonl", "--top", "0"],
     "bad value for --top"),
    ("asfsim_trace", ["summarize", "t.jsonl", "--top", "abc"],
     "bad value for --top"),
    ("kernel_throughput", ["--repeat", "abc"], "bad value for --repeat"),
    # Commands and positional arguments.
    ("asfsim_chaos", [], "usage"),
    ("asfsim_chaos", ["frobnicate"], "unknown command"),
    ("asfsim_trace", ["summarize"], "missing <trace.jsonl>"),
    ("asfsim_trace", ["convert", "t.jsonl"], "missing <out.perfetto.json>"),
    ("asfsim_trace", ["summarize", "t.jsonl", "u.jsonl"],
     "unexpected argument 'u.jsonl'"),
    ("asfsim_fig", ["fig99_nope"], "unknown figure 'fig99_nope'"),
    ("graph_kernel", ["extra"], "unexpected argument 'extra'"),
    # The examples honour only --scale/--threads/--seed.
    ("graph_kernel", ["--mutate", "drop-dirty-subblock"],
     "unknown flag --mutate"),
]

def run(argv):
    return subprocess.run(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                          timeout=TIMEOUT_S)


def check(argv, needle):
    """None when argv exits 2 with one stderr line holding `needle`."""
    try:
        p = run(argv)
    except subprocess.TimeoutExpired:
        return f"still running after {TIMEOUT_S}s"
    err = p.stderr.decode(errors="replace").splitlines()
    if p.returncode != 2 or len(err) != 1 or needle not in err[0] or p.stdout:
        return (f"exit {p.returncode}, stdout {len(p.stdout)} B, stderr "
                f"{err!r}; want one line with {needle!r}")
    return None


def sections(binary):
    """[(command or None, {flag: metavar})] from `binary --help`."""
    p = run([binary, "--help"])
    if p.returncode != 0:
        sys.exit(f"{binary} --help exited {p.returncode}")
    out = []
    for line in p.stdout.decode().splitlines():
        if line.startswith("usage: "):
            words = line[len("usage: ") + len(binary):].split()
            cmd = words[0] if words and words[0][0] not in "<[" else None
            out.append((cmd, {}))
        elif line.startswith("  --"):
            flag, _, metavar = line.strip().partition(" ")
            out[-1][1][flag] = metavar
        else:
            sys.exit(f"{binary} --help: unexpected line {line!r}")
    if not out:
        sys.exit(f"{binary} --help printed no usage line")
    return out


def main():
    binaries = {os.path.basename(b): b for b in sys.argv[1:]}
    missing = {name for name, _, _ in FIXED} - binaries.keys()
    if missing:
        sys.exit(f"usage: check_cli_surface.py <binary>... (missing "
                 f"{', '.join(sorted(missing))})")
    surface = [(b, cmd, flags) for b in binaries.values()
               for cmd, flags in sections(b)]
    every_flag = sorted({f for _, _, flags in surface for f in flags})

    cases = []
    for binary, cmd, flags in surface:
        prefix = [binary] + ([cmd] if cmd else [])
        for flag, metavar in flags.items():
            if not metavar:
                continue  # a switch
            cases.append((prefix + [flag], f"missing value for {flag}"))
            bad = []
            if metavar in NUMBER_METAVARS:
                bad = ["x1", NUMBER_METAVARS[metavar]]
            elif "|" in metavar:
                bad = ["no-such-name"]
            cases += [(prefix + [flag, v], f"bad value for {flag}")
                      for v in bad]
        cases += [(prefix + [f], f"unknown flag {f}")
                  for f in every_flag if f not in flags]
    cases += [([binaries[b]] + args, needle) for b, args, needle in FIXED]

    failures = 0
    for argv, needle in cases:
        problem = check(argv, needle)
        if problem is not None:
            failures += 1
            shown = " ".join([os.path.basename(argv[0])] + argv[1:])
            print(f"FAIL {shown}: {problem}")
    print(f"{len(cases) - failures}/{len(cases)} cases ok over "
          f"{len(surface)} command lines and {len(every_flag)} flags")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
