#!/usr/bin/env bash
# Layout-dispatch gate: the four concrete Grid3D<float, ...Layout>
# instantiations may only be spelled inside src/sfcvis/core/ (the
# AnyVolume facade — the single dispatch point) and tests/. Everything
# else must go through core::AnyVolume / core::make_volume, or stay
# templated over the layout.
#
# Usage: check_layout_gate.sh [repo-root]   (defaults to the script's repo)
set -u

root="${1:-$(cd "$(dirname "$0")/.." && pwd)}"
pattern='Grid3D<float,[[:space:]]*(sfcvis::)?(core::)?(ArrayOrder|Tiled|Hilbert|GeneralizedMorton)Layout'

violations=$(grep -rnE "$pattern" \
  "$root/src" "$root/bench" "$root/examples" "$root/tools" 2>/dev/null \
  | grep -v "^$root/src/sfcvis/core/")

if [ -n "$violations" ]; then
  echo "layout gate FAILED: concrete Grid3D<float, ...Layout> instantiations"
  echo "outside src/sfcvis/core/ — route these through core::AnyVolume /"
  echo "core::make_volume (or keep them templated over the layout):"
  echo
  echo "$violations"
  exit 1
fi

echo "layout gate OK: no concrete layout instantiations outside src/sfcvis/core/"
exit 0
