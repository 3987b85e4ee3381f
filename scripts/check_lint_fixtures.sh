#!/usr/bin/env bash
# Golden-file test for asfsim_lint: every *_flag.cpp fixture must produce
# exactly its seeded diagnostics (right rule, right count, nonzero exit);
# every *_pass.cpp fixture must come back clean. The r2_* fixtures belong
# to the compiler (R2 is -Werror=unused-result; see
# check_discarded_task.sh): r2_flag.cpp is skipped here, and r2_pass.cpp
# must still lint clean.
#
# usage: check_lint_fixtures.sh <asfsim_lint-binary> <fixtures-dir>
set -u

LINT=${1:?usage: check_lint_fixtures.sh <asfsim_lint-binary> <fixtures-dir>}
DIR=${2:?usage: check_lint_fixtures.sh <asfsim_lint-binary> <fixtures-dir>}

rule_of() {
  case "$(basename "$1")" in
    r1_*) echo "coawait-in-condition" ;;
    r3_*) echo "global-alloc-in-tx" ;;
    r4_*) echo "raw-guest-access" ;;
    r5_*) echo "nondeterministic-source" ;;
    r6_*) echo "unordered-iteration" ;;
    *)    echo "" ;;
  esac
}

expected_count() {
  # Seeded violation counts, declared in each fixture's header comment.
  case "$(basename "$1")" in
    r1_flag.cpp) echo 3 ;;
    r3_flag.cpp) echo 2 ;;
    r4_flag.cpp) echo 3 ;;
    r5_flag.cpp) echo 3 ;;
    r6_flag.cpp) echo 3 ;;
    *)           echo 1 ;;
  esac
}

fail=0

for f in $(find "$DIR" -name '*_flag.cpp' ! -name 'r2_*' | sort); do
  out=$("$LINT" "$f" 2>/dev/null)
  rc=$?
  rule=$(rule_of "$f")
  want=$(expected_count "$f")
  got=$(printf '%s\n' "$out" | grep -c ": ${rule}: ")
  total=$(printf '%s\n' "$out" | grep -c ":[0-9]*: [a-z-]*: ")
  if [ "$rc" -eq 0 ]; then
    echo "FAIL: $f: expected nonzero exit, got 0"; fail=1
  elif [ "$got" -ne "$want" ]; then
    echo "FAIL: $f: expected $want '$rule' findings, got $got:"; fail=1
    printf '%s\n' "$out"
  elif [ "$total" -ne "$want" ]; then
    echo "FAIL: $f: unexpected extra findings beyond the $want seeded:"; fail=1
    printf '%s\n' "$out"
  else
    echo "ok:   $f ($want x $rule)"
  fi
done

for f in $(find "$DIR" -name '*_pass.cpp' | sort); do
  out=$("$LINT" "$f" 2>/dev/null)
  rc=$?
  if [ "$rc" -ne 0 ]; then
    echo "FAIL: $f: expected clean run, exit $rc:"; fail=1
    printf '%s\n' "$out"
  else
    echo "ok:   $f (clean)"
  fi
done

exit $fail
