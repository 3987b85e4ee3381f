#!/usr/bin/env bash
# asfsim_trace CLI hardening regression (docs/observability.md).
#
# Every command must exit non-zero with a one-line diagnostic on a missing,
# directory, empty, or truncated/malformed trace — never print a partial
# report — and the conflicts command must work end-to-end on a real
# provenance-tagged trace produced by a figure run (fig_conflict_attribution
# in ctest).
#
# Usage: check_trace_cli.sh <asfsim_trace> <asfsim_fig> <figure>
set -u

trace_bin=$1
fig_bin=$2
figure=$3

work=$(mktemp -d)
trap 'rm -rf "$work"' EXIT
fail=0

# expect_fail <name> <needle> <cmd...>: the command must exit non-zero and
# mention <needle> in its (combined) output.
expect_fail() {
  local name=$1 needle=$2 out rc
  shift 2
  out=$("$@" 2>&1)
  rc=$?
  if [ "$rc" -eq 0 ]; then
    echo "FAIL $name: expected non-zero exit, got 0"
    fail=1
  elif ! printf '%s' "$out" | grep -q "$needle"; then
    echo "FAIL $name: diagnostic missing '$needle'; got: $out"
    fail=1
  else
    echo "ok   $name"
  fi
}

: > "$work/empty.jsonl"
printf '{"kind":"conflict","cycle":12,' > "$work/truncated.jsonl"
printf 'not json at all\n' > "$work/garbage.jsonl"

for cmd in summarize conflicts; do
  expect_fail "$cmd/missing" "no such file" \
    "$trace_bin" "$cmd" "$work/nope.jsonl"
  expect_fail "$cmd/directory" "is a directory" \
    "$trace_bin" "$cmd" "$work"
  expect_fail "$cmd/empty" "empty trace" \
    "$trace_bin" "$cmd" "$work/empty.jsonl"
  expect_fail "$cmd/truncated" "malformed" \
    "$trace_bin" "$cmd" "$work/truncated.jsonl"
  expect_fail "$cmd/garbage" "malformed" \
    "$trace_bin" "$cmd" "$work/garbage.jsonl"
done
expect_fail "convert/missing" "no such file" \
  "$trace_bin" convert "$work/nope.jsonl" "$work/out.json"
expect_fail "convert/directory" "is a directory" \
  "$trace_bin" convert "$work" "$work/out.json"
expect_fail "convert/empty" "empty trace" \
  "$trace_bin" convert "$work/empty.jsonl" "$work/out.json"
expect_fail "convert/truncated" "malformed" \
  "$trace_bin" convert "$work/truncated.jsonl" "$work/out.json"
expect_fail "noargs" "usage" "$trace_bin"
expect_fail "unknown-command" "usage" "$trace_bin" frobnicate x.jsonl

# A trace without provenance events must be diagnosed, not reported as an
# all-zero forensics table.
printf '{"kind":"begin","core":0,"cycle":1}\n' > "$work/noprov.jsonl"
expect_fail "conflicts/no-provenance" "no provenance" \
  "$trace_bin" conflicts "$work/noprov.jsonl"

# Same hardening for the starvation view: a policy-free trace (no policy
# or fallback-acquisition events) must be diagnosed under --starvation,
# not reported as an all-zero forward-progress table...
expect_fail "summarize/no-policy-events" "no contention-policy events" \
  "$trace_bin" summarize "$work/noprov.jsonl" --starvation
# ...while a trace WITH a policy event passes the strict flag.
printf '{"kind":"begin","core":0,"cycle":1}\n{"kind":"policy","core":0,"other":1,"loser":1,"cycle":2,"line":64}\n' \
  > "$work/policy.jsonl"
if "$trace_bin" summarize "$work/policy.jsonl" --starvation \
    > /dev/null 2>&1; then
  echo "ok   summarize/policy-events"
else
  echo "FAIL summarize --starvation rejected a policy-bearing trace"
  fail=1
fi

# Good path: a tiny real run with provenance on; the report must rank the
# OLTP record table as an offender site and the CSV dump must materialize.
if ! "$fig_bin" "$figure" --scale 0.1 --jobs 2 --no-cache \
    --trace-dir "$work/traces" > "$work/fig.out" 2>&1; then
  echo "FAIL fig run: $(cat "$work/fig.out")"
  fail=1
else
  f=$(ls "$work"/traces/oltp-*.jsonl | head -1)
  if ! "$trace_bin" conflicts "$f" --top 5 --csv "$work/conflicts.csv" \
      > "$work/conflicts.out" 2> /dev/null; then
    echo "FAIL conflicts on real trace"
    fail=1
  elif ! grep -q "oltp.record" "$work/conflicts.out"; then
    echo "FAIL conflicts report does not name oltp.record:"
    cat "$work/conflicts.out"
    fail=1
  elif ! grep -q "oltp.record" "$work/conflicts.csv"; then
    echo "FAIL conflicts CSV does not name oltp.record"
    fail=1
  else
    echo "ok   conflicts/real-trace"
  fi
fi

exit $fail
