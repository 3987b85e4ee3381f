#!/usr/bin/env bash
# check_bench_ratchet.py from outside the repository root.
#
# Run from any directory, the ratchet must find the committed
# BENCH_kernel.json by itself: a copy of that file compared against it
# passes. A missing input must exit 1 with one "ratchet: cannot read" line
# and no Python traceback.
#
# Usage (from any directory): check_ratchet_cli.sh <check_bench_ratchet.py>
#                                                  <BENCH_kernel.json>
set -u

ratchet=$1
committed=$2

work=$(mktemp -d ratchet_cli.XXXXXX)
trap 'rm -rf "$work"' EXIT
fail=0

cp "$committed" "$work/fresh.json"
if out=$(python3 "$ratchet" "$work/fresh.json" 2>&1); then
  echo "ok   self-comparison"
else
  echo "FAIL self-comparison: expected exit 0; got: $out"
  fail=1
fi

out=$(python3 "$ratchet" "$work/missing.json" 2>&1)
rc=$?
lines=$(printf '%s\n' "$out" | wc -l)
if [ "$rc" -ne 1 ]; then
  echo "FAIL missing file: expected exit 1, got $rc; output: $out"
  fail=1
elif [ "$lines" -ne 1 ] || printf '%s' "$out" | grep -q Traceback; then
  echo "FAIL missing file: expected one line, got: $out"
  fail=1
elif [[ "$out" != "ratchet: cannot read $work/missing.json: "* ]]; then
  echo "FAIL missing file: unexpected diagnostic: $out"
  fail=1
else
  echo "ok   missing file"
fi
exit $fail
