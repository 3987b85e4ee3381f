#!/usr/bin/env bash
# Regenerate every paper artifact at full scale, with CSV mirrors + plots.
#
#   scripts/reproduce_all.sh [outdir [asfsim_fig flags...]]
#
# Produces <outdir>/*.txt (the printed tables/series), <outdir>/*.csv, and —
# when gnuplot is installed — <outdir>/*.png for the headline figures.
#
# Experiments run through the parallel runner with an on-disk result cache
# (build/.asfsim-cache/ — see docs/runner.md), so a warm re-run executes
# zero simulations. Any further arguments go to every asfsim_fig run, e.g.
#   scripts/reproduce_all.sh out/ --jobs 4 --no-cache
set -euo pipefail
out="${1:-reproduction}"
shift || true
build="${BUILD_DIR:-build}"
mkdir -p "$out"

fig="$build/bench/asfsim_fig"
for b in $("$fig" --list); do
  echo "== $b"
  "$fig" "$b" --csv "$out" "$@" | tee "$out/$b.txt"
done

if command -v gnuplot >/dev/null 2>&1; then
  gnuplot -e "outdir='$out'" scripts/plots.gnuplot || true
  echo "plots written to $out/"
else
  echo "gnuplot not found: CSV series are in $out/, plots skipped"
fi
