#!/usr/bin/env bash
# Regenerate every paper artifact at full scale, with CSV mirrors + plots.
#
#   scripts/reproduce_all.sh [outdir]
#
# Produces <outdir>/*.txt (the printed tables/series), <outdir>/*.csv, and —
# when gnuplot is installed — <outdir>/*.png for the headline figures.
#
# Experiments run through the parallel runner with an on-disk result cache
# (build/.asfsim-cache/ — see docs/runner.md), so a warm re-run executes
# zero simulations. Environment knobs:
#   ASFSIM_JOBS=<n>      worker threads per figure (default: all cores)
#   ASFSIM_NO_CACHE=1    bypass the result cache (force fresh simulations)
set -euo pipefail
out="${1:-reproduction}"
build="${BUILD_DIR:-build}"
mkdir -p "$out"

runner_flags=()
if [ -n "${ASFSIM_JOBS:-}" ]; then
  runner_flags+=(--jobs "$ASFSIM_JOBS")
fi
if [ "${ASFSIM_NO_CACHE:-0}" = "1" ]; then
  runner_flags+=(--no-cache)
fi

fig="$build/bench/asfsim_fig"
for b in $("$fig" --list); do
  echo "== $b"
  "$fig" "$b" --csv "$out" ${runner_flags[@]+"${runner_flags[@]}"} \
    | tee "$out/$b.txt"
done

if command -v gnuplot >/dev/null 2>&1; then
  gnuplot -e "outdir='$out'" scripts/plots.gnuplot || true
  echo "plots written to $out/"
else
  echo "gnuplot not found: CSV series are in $out/, plots skipped"
fi
