#!/usr/bin/env bash
# Output bit-identity across a change: builds <base-ref> and the working
# tree in Release, runs every program whose output the repository pins
# on both builds and compares the two byte for byte:
#
#  * the figure and ablation drivers of bench/CMakeLists.txt's
#    determinism list (CSV file and console output) and the examples of
#    examples/CMakeLists.txt (standard output), each at
#    HTMPLL_THREADS=1 and 4;
#  * perfbench's output hashes (--mode setup) of fd_design, probe_verify
#    and mc_ensemble at seeds 1 and 7919 and pool widths 1 and 4, and of
#    fd_design under HTMPLL_SIMD=0 (the portable kernels);
#  * the work behind those outputs: one traced perfbench run per
#    workload (--mode trace --seconds 1, seed 1, HTMPLL_THREADS=1), whose
#    per-layer metrics of unit "count" in BENCHMARK.json, except
#    parallel.* (pool scheduling), must be equal.  Each is a mean over a
#    time-budgeted number of passes, so they are compared to 12
#    significant digits.
#
# Usage: scripts/compare_outputs.sh <base-ref>
#
# The base tree is extracted with git archive, so nothing is registered
# in the repository.  Sources, builds and outputs live in one temporary
# directory under ${TMPDIR:-/tmp}, removed on exit.  The script prints
# one line per difference and exits 1 if there is any or if a program
# failed on both sides, 0 if every output is byte-identical, and 2 on a
# usage or build error.
set -euo pipefail

if [[ $# -ne 1 ]]; then
  echo "usage: $0 <base-ref>" >&2
  exit 2
fi
root="$(git -C "$(dirname "$0")" rev-parse --show-toplevel)"
if ! base="$(git -C "$root" rev-parse --verify --quiet "$1^{commit}")"; then
  echo "compare_outputs: '$1' names no commit" >&2
  exit 2
fi

# The comparison runs under the documented defaults only.
while read -r var; do
  unset "$var"
done < <(compgen -e | grep '^HTMPLL_' || true)

drivers=($(sed -n '/^foreach(driver/,/)$/p' "$root/bench/CMakeLists.txt" |
           tr '()' '  ' | tr -s ' ' '\n' | grep -v -x -e '' -e foreach \
             -e driver))
examples=($(sed -n 's/^htmpll_example(\([a-z_0-9]*\))$/\1/p' \
              "$root/examples/CMakeLists.txt"))
if [[ ${#drivers[@]} -eq 0 || ${#examples[@]} -eq 0 ]]; then
  echo "compare_outputs: cannot read the driver or example lists" >&2
  exit 2
fi
workloads=(fd_design probe_verify mc_ensemble)
seeds=(1 7919)
widths=(1 4)

work="$(mktemp -d "${TMPDIR:-/tmp}/compare_outputs.XXXXXX")"
trap 'rm -rf "$work"' EXIT
mkdir "$work/base-src"
git -C "$root" archive "$base" | tar -x -C "$work/base-src"
jobs="$(nproc)"
((jobs > 4)) && jobs=4

# build <side> <source tree>: the drivers, the examples and perfbench.
build() {
  local side="$1" src="$2"
  echo "compare_outputs: building $side" >&2
  if ! { cmake -S "$src" -B "$work/$side/build" -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$work/$side/build" -j "$jobs" \
           --target "${drivers[@]}" "${examples[@]}" &&
         cmake -S "$src/perfbench" -B "$work/$side/perfbench" \
           -DCMAKE_BUILD_TYPE=Release &&
         cmake --build "$work/$side/perfbench" -j "$jobs"; } \
       > "$work/$side.build.log" 2>&1; then
    tail -n 30 "$work/$side.build.log" >&2
    echo "compare_outputs: the $side build failed" >&2
    exit 2
  fi
}

# run <side>: every output into $work/<side>/out.  Each program runs in
# that directory with a relative CSV path, so the "wrote <path>" lines
# of the two sides match.
run() {
  local side="$1" bin="$work/$1/build" out="$work/$1/out"
  mkdir -p "$out"
  echo "compare_outputs: running $side" >&2
  for t in "${widths[@]}"; do
    for d in "${drivers[@]}"; do
      (cd "$out" && HTMPLL_THREADS="$t" "$bin/bench/$d" "$d.t$t.csv" \
         > "$d.t$t.console") ||
        echo "exit status $?" >> "$out/$d.t$t.console"
    done
    for e in "${examples[@]}"; do
      (cd "$out" && HTMPLL_THREADS="$t" "$bin/examples/$e" \
         > "$e.t$t.stdout") ||
        echo "exit status $?" >> "$out/$e.t$t.stdout"
    done
  done
  local pb="$work/$side/perfbench/htmpll_perfbench"
  for w in "${workloads[@]}"; do
    for s in "${seeds[@]}"; do
      for t in "${widths[@]}"; do
        HTMPLL_THREADS="$t" perfbench_hash "$pb" "$w" "$s" \
          > "$out/perfbench.$w.seed$s.t$t.hash"
      done
    done
  done
  for s in "${seeds[@]}"; do
    HTMPLL_THREADS=1 HTMPLL_SIMD=0 perfbench_hash "$pb" fd_design "$s" \
      > "$out/perfbench.fd_design.seed$s.simd0.hash"
  done
  for w in "${workloads[@]}"; do
    HTMPLL_THREADS=1 perfbench_counts "$pb" "$w" > "$out/perfbench.$w.counts"
  done
}

# perfbench_hash <binary> <workload> <seed>: the "hash" of its record.
perfbench_hash() {
  local record
  if record="$("$1" --workload "$2" --seed "$3" --mode setup --seconds 1 |
               tail -n 1)"; then
    sed -n 's/.*"hash": *"\([0-9a-f]*\)".*/\1/p' <<< "$record"
  else
    echo "perfbench exited with status $?"
  fi
}

# perfbench_counts <binary> <workload>: "name value" per compared count
# metric of one traced run.
perfbench_counts() {
  local record
  if record="$("$1" --workload "$2" --seed 1 --mode trace --seconds 1 |
               tail -n 1)"; then
    python3 -c '
import json, sys
layers = json.loads(sys.stdin.read())["layers"]
for m in json.load(open(sys.argv[1]))["per_layer"]:
    name = m["name"]
    if m["unit"] == "count" and not name.startswith("parallel."):
        print(name, "%.12g" % layers[name] if name in layers else "missing")
' "$root/BENCHMARK.json" <<< "$record"
  else
    echo "perfbench exited with status $?"
  fi
}

build base "$work/base-src"
build head "$root"
run base
run head

differences=0
compared=0
for f in "$work/head/out"/* "$work/base/out"/*; do
  name="$(basename "$f")"
  [[ "$f" == "$work/base/out/"* && -e "$work/head/out/$name" ]] && continue
  compared=$((compared + 1))
  if [[ ! -e "$work/base/out/$name" || ! -e "$work/head/out/$name" ]]; then
    echo "DIFFERS: $name exists on one side only"
    differences=$((differences + 1))
  elif ! cmp -s "$work/base/out/$name" "$work/head/out/$name"; then
    case "$name" in
      *.hash) echo "DIFFERS: $name: $(cat "$work/base/out/$name") ->" \
                   "$(cat "$work/head/out/$name")" ;;
      *.counts) paste -d ' ' "$work/base/out/$name" "$work/head/out/$name" |
                  awk -v f="$name" '$2 != $4 {
                    print "DIFFERS: " f ": " $1 ": " $2 " -> " $4 }' ;;
      *) echo "DIFFERS: $name" ;;
    esac
    differences=$((differences + 1))
  elif grep -q -e '^exit status ' -e '^perfbench exited with status ' "$f"
  then
    # Equal, but only because the program failed the same way twice.
    echo "FAILED: $name: the program failed on both sides"
    differences=$((differences + 1))
  fi
done
for f in "$work/head/out"/perfbench.*.hash; do
  echo "$(basename "$f" .hash | sed 's/^perfbench\.//'): $(cat "$f")"
done
for f in "$work/head/out"/perfbench.*.counts; do
  echo "$(basename "$f" .counts | sed 's/^perfbench\.//') counts:" \
       "$(tr ' ' '=' < "$f" | tr '\n' ' ')"
done
echo "compare_outputs: ${#drivers[@]} drivers and ${#examples[@]} examples" \
     "at HTMPLL_THREADS=${widths[*]}, perfbench hashes and work counts;" \
     "$compared outputs compared against" \
     "$(git -C "$root" rev-parse --short "$base"): $differences differ"
((differences == 0))
