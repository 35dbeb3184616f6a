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
# Usage: scripts/compare_outputs.sh [--max-rel <bound>] <base-ref>
#
# The base tree is extracted with git archive, so nothing is registered
# in the repository.  Sources, builds and outputs live in one temporary
# directory under ${TMPDIR:-/tmp}, removed on exit.  The script prints
# one line per difference (a differing CSV, console or standard output
# is followed by the first 20 lines of its diff from base to head) and
# exits 1 if there is any or if a program failed on both sides, 0 if
# every output is byte-identical, and 2 on a usage or build error.
#
# --max-rel <bound> is for changes that move output bits on purpose.
# Each differing CSV, console or standard output is then compared token
# by token instead of diffed: the script prints the largest relative
# change |head - base| / max(|base|, |head|) over its numeric tokens,
# with that line from both sides, and a STRUCTURE: line when a
# non-numeric token or the line count differs.  It exits 1 only on such
# a structural difference, on a relative change above <bound> or on a
# program that failed on both sides; differing hashes and work counts
# are reported as without the option but do not change the exit status.
set -euo pipefail

max_rel=""
if [[ $# -eq 3 && "$1" == "--max-rel" ]]; then
  max_rel="$2"
  shift 2
  if ! python3 -c 'import math, sys; b = float(sys.argv[1]); sys.exit(0 if math.isfinite(b) and b >= 0 else 1)' "$max_rel" 2> /dev/null; then
    echo "compare_outputs: --max-rel needs a finite bound >= 0, got '$max_rel'" >&2
    exit 2
  fi
fi
if [[ $# -ne 1 ]]; then
  echo "usage: $0 [--max-rel <bound>] <base-ref>" >&2
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

# max_rel_report <base file> <head file>: the --max-rel report of one
# differing text output; exits 1 on a structural difference or a
# relative change above $max_rel.
max_rel_report() {
  python3 - "$max_rel" "$1" "$2" <<'PY'
import math, re, sys
bound = float(sys.argv[1])
number = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
                    r"|(?<![a-z])[-+]?(?:inf|nan)(?![a-z])", re.IGNORECASE)
def split(line):
    """The text between the numbers (runs of blanks as one: a table pads
    its columns to the width of its numbers), and the numbers."""
    text = [" ".join(t.split()) for t in number.split(line)]
    return text, [float(t) for t in number.findall(line)]
base = open(sys.argv[2]).read().splitlines()
head = open(sys.argv[3]).read().splitlines()
status = 0
if len(base) != len(head):
    print(f"    STRUCTURE: {len(base)} lines -> {len(head)} lines")
    status = 1
worst, where = 0.0, None
for i, (b, h) in enumerate(zip(base, head), start=1):
    if b == h:
        continue
    (bt, bn), (ht, hn) = split(b), split(h)
    if bt != ht or len(bn) != len(hn):
        print(f"    STRUCTURE: line {i}:\n      < {b}\n      > {h}")
        status = 1
        continue
    for x, y in zip(bn, hn):
        if x == y or (math.isnan(x) and math.isnan(y)):
            continue
        scale = max(abs(x), abs(y))
        rel = abs(y - x) / scale if math.isfinite(scale) else math.inf
        if math.isnan(rel):
            rel = math.inf
        if rel > worst:
            worst, where = rel, (i, b, h)
if where is not None:
    i, b, h = where
    print(f"    max rel {worst:.3g} at line {i}:\n      < {b}\n      > {h}")
    if worst > bound:
        print(f"    ABOVE BOUND: {worst:.3g} > {bound:.3g}")
        status = 1
sys.exit(status)
PY
}

build base "$work/base-src"
build head "$root"
run base
run head

differences=0
failures=0  # what fails a --max-rel run
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
      *) echo "DIFFERS: $name"
         if [[ -n "$max_rel" ]]; then
           max_rel_report "$work/base/out/$name" "$work/head/out/$name" ||
             failures=$((failures + 1))
         else
           # The first lines of the change itself, base (<) to head (>).
           diff "$work/base/out/$name" "$work/head/out/$name" |
             head -n 20 | sed 's/^/    /' || true
         fi ;;
    esac
    differences=$((differences + 1))
  elif grep -q -e '^exit status ' -e '^perfbench exited with status ' "$f"
  then
    # Equal, but only because the program failed the same way twice.
    echo "FAILED: $name: the program failed on both sides"
    differences=$((differences + 1))
    failures=$((failures + 1))
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
if [[ -n "$max_rel" ]]; then
  echo "compare_outputs: --max-rel $max_rel: $failures above the bound," \
       "structural or failed on both sides"
  ((failures == 0))
else
  ((differences == 0))
fi
