#!/usr/bin/env bash
# Tooling self-test of the benchmark: two --smoke runs (every correctness
# check, about 1/16 of the work) piped through compare.py, which exits
# non-zero when the outputs differ or fail_ratio rises. One pair is too few
# to judge timings, so it reports them as n<3.
#
#   bash benchmark/selftest.sh
set -euo pipefail
cd "$(dirname "$0")/.."
out=build/benchmark/selftest
mkdir -p "$out"
for side in parent change; do
  python3 benchmark/run.py --smoke > /dev/null
  cp build/benchmark/results.json "$out/$side.json"
done
python3 benchmark/compare.py --parent "$out/parent.json" \
                             --change "$out/change.json"
