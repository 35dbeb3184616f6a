// Diagnostic event log: reason-coded records of WHY a fast path
// degraded, plus process-wide numerical-health gauges.
//
// The engine's layered fast paths (spectral propagators over Pade, SIMD
// kernels over scalar, compiled eval plans over pointwise grids) all
// fall back silently to their slow/exact twin on defective matrices,
// out-of-range lanes or near-pole cancellation.  The counters in
// metrics.hpp say *that* work happened; this module records *why* the
// degradations happened, with the measured quantity that triggered them
// (kappa(V) of a rejected eigenbasis, |exp(pT)| of an overflowed plan
// term, the number of lanes that failed a SIMD guard).
//
// Hot-path contract (same as the metrics registry):
//  * disabled (default): diag_event() / diag_gauge_max() are one
//    relaxed load of obs::enabled() plus an untaken branch.  Every
//    instrumented site already sits on a rare fallback branch, so the
//    production cost is zero-ish twice over.
//  * enabled: one relaxed fetch_add on an enum-indexed tally array and
//    one store into the calling thread's bounded event ring.  No
//    strings, no allocation, no locks on the hot path; ring
//    registration (once per thread) takes a mutex.
//
// The rings are bounded: when a thread records more than the ring
// capacity the oldest events are overwritten and counted as dropped --
// the tallies stay exact, only the per-event payloads age out.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <string_view>
#include <vector>

#include "htmpll/obs/metrics.hpp"

namespace htmpll::obs {

/// Why a degradation happened.  Values are stable JSON identifiers via
/// diag_reason_name(); add new reasons at the end (before kCount).
enum class DiagReason : std::uint8_t {
  kPadeFallbackDefective = 0,   ///< eigenbasis numerically defective
  kPadeFallbackNotConverged,    ///< Francis QR hit its sweep limit
  kPadeFallbackIllConditioned,  ///< kappa(V) above max_condition
  kSimdBailoutOutOfRange,       ///< cexp lane outside the poly range
  kSimdBailoutNonFinite,        ///< cexp lane carried NaN/Inf input
  kSimdBailoutGuardTrip,        ///< pole-sum / rational-div guard lane
  kPlanCancellationRecompute,   ///< eval-plan near-pole recompute
  kPlanExpOverflowFallback,     ///< exp(pT) left the normal range
  kPlanScalarFallback,          ///< plan unusable (multiplicity > 4)
  kHtmTruncationSaturated,      ///< adaptive aliasing sum hit max_pairs
  kPoleSearchDegenerateStep,    ///< Newton lane dropped: df zero/non-finite
  kPoleSearchDiverged,          ///< Newton lane dropped: step left R^2
  kVcoEdgeBisectionFallback,    ///< VCO-edge Newton failed; bisection ran
  kCount,
};

inline constexpr std::size_t kDiagReasonCount =
    static_cast<std::size_t>(DiagReason::kCount);

/// Stable dotted identifier ("pade_fallback.defective", ...) used as
/// the JSON key of the reason's tally in perfbench reports.
const char* diag_reason_name(DiagReason reason);

/// Inverse of diag_reason_name().  Returns false (and leaves `out`
/// untouched) for unknown names.
bool diag_reason_from_name(std::string_view name, DiagReason& out);

/// Monotonic-max numerical-health gauges.
enum class HealthGauge : std::uint8_t {
  kMaxEigenbasisCondition = 0,  ///< worst accepted kappa_inf(V)
  kMaxEigenpairResidual,        ///< worst ||A v - lambda v|| / ||A||
  kCount,
};

inline constexpr std::size_t kHealthGaugeCount =
    static_cast<std::size_t>(HealthGauge::kCount);

/// Stable JSON identifier ("max_eigenbasis_condition", ...).
const char* health_gauge_name(HealthGauge gauge);

/// Records one diagnostic event: bumps the reason's tally and appends
/// {reason, payload} to the calling thread's ring.  No-op (one relaxed
/// load) while obs is disabled.
void diag_event(DiagReason reason, double payload = 0.0);

/// Raises a health gauge to max(current, value).  NaN is ignored.
/// No-op while obs is disabled.
void diag_gauge_max(HealthGauge gauge, double value);

/// One event copied out of a ring at snapshot time.
struct DiagEvent {
  DiagReason reason = DiagReason::kCount;
  double payload = 0.0;
  int tid = 0;  ///< small per-thread id assigned at first event
};

/// Point-in-time copy of the diagnostic state.
struct DiagSnapshot {
  std::array<std::uint64_t, kDiagReasonCount> tally{};
  std::array<double, kHealthGaugeCount> gauge{};
  /// Retained per-thread ring contents (bounded; oldest dropped first).
  std::vector<DiagEvent> events;
  /// Events lost to ring wrap-around since the last diag_reset().
  std::uint64_t dropped = 0;

  std::uint64_t total() const {
    std::uint64_t n = 0;
    for (std::uint64_t t : tally) n += t;
    return n;
  }
};

/// Consistent-per-field copy of tallies, gauges and ring contents.
/// Safe to call while other threads emit; exact at quiescence.
DiagSnapshot diag_snapshot();

/// Events lost to ring wrap-around since the last diag_reset().
std::uint64_t diag_dropped();

/// Zeroes the tallies and gauges and drops all retained events.
/// obs::reset_counters() calls this too; only safe at quiescence.
void diag_reset();

}  // namespace htmpll::obs
