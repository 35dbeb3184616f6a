#!/usr/bin/env bash
# Thread-count determinism, end to end: runs one program at
# HTMPLL_THREADS=1 and at HTMPLL_THREADS=4 and requires its output to be
# byte-identical.  By default the program is a figure driver and the
# output compared is the CSV file it writes to argv[1]; with --stdout
# (the examples, which take no CSV path) it is the standard output.
#
# Usage: scripts/determinism_check.sh [--stdout] <binary> <output-dir>
# (ctest runs it as determinism_<driver> for the drivers listed in
# bench/CMakeLists.txt and as determinism_example_<name> for the
# examples in examples/CMakeLists.txt.)
set -euo pipefail

mode=csv
if [[ "${1:-}" == "--stdout" ]]; then
  mode=stdout
  shift
fi
if [[ $# -ne 2 ]]; then
  echo "usage: $0 [--stdout] <binary> <output-dir>" >&2
  exit 2
fi
driver="$1"
out="$2"
name="$(basename "$driver")"
mkdir -p "$out"

for threads in 1 4; do
  if [[ "$mode" == csv ]]; then
    HTMPLL_THREADS="$threads" "$driver" "$out/$name.threads$threads.csv" \
      > "$out/$name.threads$threads.log"
  else
    HTMPLL_THREADS="$threads" "$driver" > "$out/$name.threads$threads.log"
  fi
done
if [[ "$mode" == csv ]]; then
  cmp "$out/$name.threads1.csv" "$out/$name.threads4.csv"
  echo "$name: CSV byte-identical at HTMPLL_THREADS=1 and 4"
else
  cmp "$out/$name.threads1.log" "$out/$name.threads4.log"
  echo "$name: stdout byte-identical at HTMPLL_THREADS=1 and 4"
fi
