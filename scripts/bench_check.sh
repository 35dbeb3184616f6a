#!/usr/bin/env bash
# Builds the benchmark gates in Release and verifies the engines:
#
#  * bench_sweep: the 1-thread and pooled SweepRunner sweeps must be
#    bit-identical to the point-wise loop (and the obs-on grid to the
#    obs-off one), the eval-plan grids must agree with the point-wise
#    path to <= 1e-12 relative error and run at >= 0.97x the point-wise
#    loop, and with a pool >= 4 wide the pool sweep must not be slower
#    than the 1-thread sweep (--check enforces the timing gates;
#    bit-identity and tolerance are enforced everywhere).
#  * bench_kernels: the compiled eval plan must evaluate the exact-method
#    2000-point lambda sweep at >= 1.5x the point-wise lambda swept on
#    the same pool, with <= 1e-12 max relative error.
#  * bench_transient: the pooled probe sweep must be bit-identical to
#    the serial one, the spectral cold sweep must agree with the seed
#    replica (Van Loan expm propagators) to <= 1e-10, run >= 2x faster
#    than it and drive the probe sweep's expm evaluations to ~zero,
#    warm-start measurements must agree with cold ones within the probe
#    tolerance, and warm start must beat the seed baseline (verdict
#    field in BENCH_transient.json).
#  * report shape: both BENCH_*.json files must carry the fields the
#    downstream tooling reads (bit-identity verdicts, telemetry,
#    obs_overhead); a missing field fails with the gate name and the
#    expected vs actual value instead of a silent pass.
#  * bench_noise: output_psd_grid must agree with the pointwise
#    output_psd_total loop to <= 1e-10 relative error and run at >= 3x
#    its speed -- on the default (SIMD-dispatched), the scalar-forced
#    (HTMPLL_SIMD=0) and the instrumented (HTMPLL_OBS=1) paths alike.
#  * forced-scalar dispatch: bench_kernels and bench_noise re-run with
#    HTMPLL_SIMD=0, so the portable kernels keep their own gates even
#    when the AVX2 path exists.
#  * -DHTMPLL_SIMD=OFF: a separate configure/build in "$BUILD-nosimd"
#    proves the stub TU links and the same noise/kernel gates hold when
#    the vector variants are compiled out entirely.
#  * instrumentation overhead: scripts/check_overhead.sh gates the
#    obs_overhead sections of the sweep AND noise reports.
#  * health manifests: every bench's .manifest.json must carry the
#    "health" section (diagnostic event tallies, gauges, span
#    aggregates), and the reference-loop transient manifest must report
#    zero spectral->Pade fallback events.
#  * bench history: scripts/bench_history.py must ingest the reports
#    against a fresh baseline (exit 0), then again against itself (no
#    regression, exit 0); the run is also appended to bench/history.jsonl.
#
# Usage: scripts/bench_check.sh [--smoke] [build-dir] [sweep-report.json] [transient-report.json] [kernels-report.json] [noise-report.json]
#   --smoke: end-to-end bench-shape check for PRs -- reduced reps where
#            supported, gates relaxed to parity / tolerance /
#            bit-identity only (no timing gates, no overhead check, no
#            history ingestion, no -DHTMPLL_SIMD=OFF rebuild).
set -euo pipefail

SMOKE=0
POS=()
for arg in "$@"; do
  if [ "$arg" = "--smoke" ]; then
    SMOKE=1
  else
    POS+=("$arg")
  fi
done
BUILD="${POS[0]:-build-release}"
REPORT="${POS[1]:-BENCH_sweep.json}"
TREPORT="${POS[2]:-BENCH_transient.json}"
KREPORT="${POS[3]:-BENCH_kernels.json}"
NREPORT="${POS[4]:-BENCH_noise.json}"

# The benches enforce parity / tolerance / bit-identity unconditionally;
# --check adds their timing gates, which smoke mode leaves out.
CHECK="--check"
if [ "$SMOKE" = 1 ]; then CHECK=""; fi

cmake -B "$BUILD" -S . -DCMAKE_BUILD_TYPE=Release > /dev/null
cmake --build "$BUILD" --target bench_sweep bench_transient bench_kernels \
      bench_noise -j > /dev/null

"$BUILD/bench/bench_sweep" "$REPORT" $CHECK
"$BUILD/bench/bench_transient" "$TREPORT" $CHECK
"$BUILD/bench/bench_kernels" "$KREPORT" $CHECK
"$BUILD/bench/bench_noise" "$NREPORT" $CHECK

# The same gates must hold with the SIMD dispatch forced to the
# portable scalar kernels and with the obs layer live.
HTMPLL_SIMD=0 "$BUILD/bench/bench_kernels" "${KREPORT%.json}_scalar.json" $CHECK
HTMPLL_SIMD=0 "$BUILD/bench/bench_noise" "${NREPORT%.json}_scalar.json" $CHECK
HTMPLL_OBS=1 "$BUILD/bench/bench_noise" "${NREPORT%.json}_obs.json" $CHECK

FAILURES=0

# fail <gate> <file> <expected> <actual>
fail() {
  echo "bench_check: FAIL [$1] in $2" >&2
  echo "  expected: $3" >&2
  echo "  actual:   $4" >&2
  FAILURES=$((FAILURES + 1))
}

# field <file> <key> -> first "key": value in the file, '' when absent.
field() {
  awk -v key="\"$2\"" '$1 == key ":" {
    v = $2
    gsub(/,$/, "", v)
    print v
    exit
  }' "$1"
}

# require_true <gate> <file> <key>
require_true() {
  local v
  v="$(field "$2" "$3")"
  if [ -z "$v" ]; then
    fail "$1" "$2" "\"$3\": true" "field missing"
  elif [ "$v" != "true" ]; then
    fail "$1" "$2" "\"$3\": true" "\"$3\": $v"
  fi
}

# require_section <gate> <file> <key>
require_section() {
  if ! grep -q "\"$3\":" "$2"; then
    fail "$1" "$2" "a \"$3\" section" "section missing"
  fi
}

# require_ge <gate> <file> <key> <min>
require_ge() {
  local v
  v="$(field "$2" "$3")"
  if [ -z "$v" ]; then
    fail "$1" "$2" "\"$3\" >= $4" "field missing"
  elif ! awk -v v="$v" -v min="$4" 'BEGIN { exit !(v + 0 >= min + 0) }'; then
    fail "$1" "$2" "\"$3\" >= $4" "\"$3\": $v"
  fi
}

# require_le <gate> <file> <key> <max>
require_le() {
  local v
  v="$(field "$2" "$3")"
  if [ -z "$v" ]; then
    fail "$1" "$2" "\"$3\" <= $4" "field missing"
  elif ! awk -v v="$v" -v max="$4" 'BEGIN { exit !(v + 0 <= max + 0) }'; then
    fail "$1" "$2" "\"$3\" <= $4" "\"$3\": $v"
  fi
}

for f in "$REPORT" "$TREPORT" "$KREPORT" "$NREPORT"; do
  if [ ! -f "$f" ]; then
    fail "report-exists" "$f" "file written by the bench" "no such file"
  fi
done

if [ -f "$REPORT" ]; then
  require_true sweep-bit-identical "$REPORT" bit_identical
  require_true sweep-plan-tolerance "$REPORT" plan_within_tolerance
  if [ "$SMOKE" = 0 ]; then
    require_ge sweep-plan-speedup "$REPORT" grid_speedup_vs_pointwise 0.97
  fi
  require_section sweep-telemetry "$REPORT" telemetry
  require_section sweep-obs-overhead "$REPORT" obs_overhead
  require_section sweep-baseband "$REPORT" baseband_sweep
fi

if [ -f "$KREPORT" ]; then
  require_true kernels-plan-tolerance "$KREPORT" plan_within_tolerance
  if [ "$SMOKE" = 0 ]; then
    require_ge kernels-plan-speedup "$KREPORT" plan_speedup_vs_scalar 1.5
  fi
  require_le kernels-plan-rel-err "$KREPORT" plan_max_rel_err 1e-12
  require_section kernels-eval-plan "$KREPORT" eval_plan
  require_section kernels-micro "$KREPORT" kernels
  require_section kernels-telemetry "$KREPORT" telemetry
fi

if [ -f "$TREPORT" ]; then
  require_true transient-bit-identical "$TREPORT" default_bit_identical
  require_true transient-warm-tolerance "$TREPORT" warm_within_tolerance
  require_section transient-telemetry "$TREPORT" telemetry
  require_section transient-probe-sweep "$TREPORT" probe_sweep
  require_true transient-spectral-tolerance "$TREPORT" \
    spectral_within_tolerance
  require_le transient-spectral-rel-err "$TREPORT" spectral_max_rel_err 1e-10
  if [ "$SMOKE" = 0 ]; then
    require_ge transient-spectral-speedup "$TREPORT" \
      spectral_cold_speedup_vs_seed 2
  fi
  require_le transient-spectral-expm-evals "$TREPORT" \
    probe_sweep_expm_evals 32
fi

for nf in "$NREPORT" "${NREPORT%.json}_scalar.json" "${NREPORT%.json}_obs.json"; do
  if [ -f "$nf" ]; then
    require_true noise-grid-tolerance "$nf" grid_within_tolerance
    if [ "$SMOKE" = 0 ]; then
      require_ge noise-grid-speedup "$nf" grid_speedup_vs_pointwise 3
    fi
    require_le noise-grid-rel-err "$nf" grid_max_rel_err 1e-10
    require_section noise-output-psd "$nf" output_psd
    require_section noise-surfaces "$nf" surfaces
    require_section noise-telemetry "$nf" telemetry
  fi
done
require_true noise-obs-bit-identical "$NREPORT" bit_identical
require_section noise-obs-overhead "$NREPORT" obs_overhead

# Every bench manifest must carry the diagnostics/health section.
for f in "$REPORT" "$TREPORT" "$KREPORT" "$NREPORT"; do
  m="$f.manifest.json"
  if [ -f "$m" ]; then
    require_section manifest-health "$m" health
    require_section manifest-health-gauges "$m" gauges
  else
    fail manifest-exists "$m" "manifest written by the bench" "no such file"
  fi
done

# On the reference loop every propagator factorization must succeed:
# any spectral->Pade fallback event in the transient manifest is
# unexpected.
TM="$TREPORT.manifest.json"
if [ -f "$TM" ]; then
  require_le transient-no-pade-defective "$TM" pade_fallback.defective 0
  require_le transient-no-pade-not-converged "$TM" \
    pade_fallback.not_converged 0
  require_le transient-no-pade-ill-conditioned "$TM" \
    pade_fallback.ill_conditioned 0
fi

if [ "$FAILURES" -gt 0 ]; then
  echo "bench_check: $FAILURES gate(s) failed" >&2
  exit 1
fi

if [ "$SMOKE" = 1 ]; then
  echo "bench_check: OK [smoke] ($REPORT, $TREPORT, $KREPORT, $NREPORT)"
  exit 0
fi

"$(dirname "$0")/check_overhead.sh" "$BUILD" "$REPORT" "$NREPORT" --no-run

# Bench history: a fresh baseline must ingest cleanly (exit 0), and an
# immediate re-run of the same reports must not register a regression.
HISTORY_TMP="$(mktemp)"
trap 'rm -f "$HISTORY_TMP"' EXIT
python3 "$(dirname "$0")/bench_history.py" --history "$HISTORY_TMP" \
  "$REPORT" "$TREPORT" "$KREPORT" "$NREPORT"
python3 "$(dirname "$0")/bench_history.py" --history "$HISTORY_TMP" \
  "$REPORT" "$TREPORT" "$KREPORT" "$NREPORT"
# Record this run in the persistent history keyed by git describe.
python3 "$(dirname "$0")/bench_history.py" \
  "$REPORT" "$TREPORT" "$KREPORT" "$NREPORT"

# A build with the vector kernel TU compiled out entirely: the stub
# path must link and the portable kernels must clear the same gates.
NOSIMD_BUILD="$BUILD-nosimd"
cmake -B "$NOSIMD_BUILD" -S . -DCMAKE_BUILD_TYPE=Release \
      -DHTMPLL_SIMD=OFF > /dev/null
cmake --build "$NOSIMD_BUILD" --target bench_kernels bench_noise -j > /dev/null
"$NOSIMD_BUILD/bench/bench_kernels" "${KREPORT%.json}_nosimd.json" --check
"$NOSIMD_BUILD/bench/bench_noise" "${NREPORT%.json}_nosimd.json" --check

echo "bench_check: OK ($REPORT, $TREPORT, $KREPORT, $NREPORT)"
