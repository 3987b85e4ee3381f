#!/usr/bin/env bash
# asfsim_chaos number parsing regression (docs/robustness.md).
#
# A negative or out-of-range value for a matrix/cell flag must end in a
# one-line "<prog>: bad value for <flag>: '<text>'" diagnostic and exit 2 —
# never wrap around or get truncated into a cell that silently runs with
# other parameters (--nsub 4294967300 must not run with nsub 4).
#
# Usage: check_chaos_cli.sh <asfsim_chaos>
set -u

chaos_bin=${1:?usage: check_chaos_cli.sh <asfsim_chaos>}
fail=0

# expect_usage_error <args...>: exit 2 with exactly one stderr line.
expect_usage_error() {
  local err rc lines
  err=$("$chaos_bin" "$@" 2>&1 >/dev/null)
  rc=$?
  lines=$(printf '%s\n' "$err" | wc -l)
  if [ "$rc" -ne 2 ] || [ "$lines" -ne 1 ]; then
    echo "FAIL asfsim_chaos $*: exit $rc, $lines stderr lines:"
    printf '%s\n' "$err"
    fail=1
  else
    echo "ok   asfsim_chaos $*: $err"
  fi
}

expect_usage_error cell --ntx -1
expect_usage_error cell --nsub 4294967300
expect_usage_error cell --nsub 0
expect_usage_error cell --cm-karma 4294967296
expect_usage_error cell --cm-max-retries -1
expect_usage_error cell --max-tx-retries -2
expect_usage_error cell --mutate no-such-mutation
expect_usage_error cell --cm-policy no-such-policy
expect_usage_error matrix --ntx 0
expect_usage_error matrix --seeds 1,x,3
expect_usage_error matrix --audit -5

exit $fail
