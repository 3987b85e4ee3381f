#!/usr/bin/env bash
# R2 (discarded-task) is a compiler check: Task is [[nodiscard]] and the
# build passes -Werror=unused-result. This pins both directions with the
# given compile command: r2_flag.cpp must fail with exactly two
# [-Werror=unused-result] errors, at its two seeded lines (11 and 14), and
# r2_pass.cpp must compile.
#
# usage: check_discarded_task.sh <fixtures-dir> <compiler> [<arg>...]
set -u

DIR=${1:?usage: check_discarded_task.sh <fixtures-dir> <compiler> [<arg>...]}
shift

if out=$("$@" "$DIR/r2_flag.cpp" 2>&1); then
  echo "FAIL: r2_flag.cpp compiled; expected two unused-result errors"
  exit 1
fi
lines=$(printf '%s\n' "$out" |
        grep -E 'r2_flag\.cpp:[0-9]+:[0-9]+: error: .*\[-Werror=unused-result\]' |
        cut -d: -f2 | tr '\n' ' ')
errors=$(printf '%s\n' "$out" | grep -c ': error: ')
if [ "$lines" != "11 14 " ] || [ "$errors" -ne 2 ]; then
  echo "FAIL: r2_flag.cpp: expected unused-result errors at lines 11 and 14," \
       "got at: ${lines:-none}"
  printf '%s\n' "$out"
  exit 1
fi
echo "ok:   r2_flag.cpp rejected at lines 11 and 14 (-Werror=unused-result)"

if ! "$@" "$DIR/r2_pass.cpp"; then
  echo "FAIL: r2_pass.cpp does not compile"
  exit 1
fi
echo "ok:   r2_pass.cpp compiles"
