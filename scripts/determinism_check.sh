#!/usr/bin/env bash
# Thread-count determinism, end to end: runs one figure driver at
# HTMPLL_THREADS=1 and at HTMPLL_THREADS=4 and requires the two CSV
# files it writes to be byte-identical.
#
# Usage: scripts/determinism_check.sh <driver-binary> <output-dir>
# (ctest runs it as determinism_<driver> for the drivers listed in
# bench/CMakeLists.txt.)
set -euo pipefail

if [[ $# -ne 2 ]]; then
  echo "usage: $0 <driver-binary> <output-dir>" >&2
  exit 2
fi
driver="$1"
out="$2"
name="$(basename "$driver")"
mkdir -p "$out"

for threads in 1 4; do
  HTMPLL_THREADS="$threads" "$driver" "$out/$name.threads$threads.csv" \
    > "$out/$name.threads$threads.log"
done
cmp "$out/$name.threads1.csv" "$out/$name.threads4.csv"
echo "$name: CSV byte-identical at HTMPLL_THREADS=1 and 4"
