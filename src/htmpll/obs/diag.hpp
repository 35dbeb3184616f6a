// Diagnostic event log: reason-coded records of WHY a fast path
// degraded.
//
// The engine's layered fast paths (spectral propagators over Pade, SIMD
// kernels over scalar, compiled eval plans over pointwise grids) all
// fall back silently to their slow/exact twin on defective matrices,
// out-of-range lanes or near-pole cancellation.  The work counters of
// the metrics registry say *that* work happened; this module records
// *why* the degradations happened, with the measured quantity that
// triggered them (kappa(V) of a rejected eigenbasis, |exp(pT)| of an
// overflowed plan term, the number of lanes that failed a SIMD guard).
// Each reason's tally is a registry counter named by the reason's id
// ("simd_bailout.guard_trip", ...), so snapshot() reports it with the
// rest of the counters and reset_counters() zeroes it.
//
// Hot-path contract (same as the metrics registry):
//  * disabled (default): diag_event() is one relaxed load of
//    obs::enabled() plus an untaken branch.  Every instrumented site
//    already sits on a rare fallback branch, so the production cost is
//    zero-ish twice over.
//  * enabled: one relaxed fetch_add on the reason's counter and one
//    store into the calling thread's bounded event ring (obs/ring.hpp,
//    1024 events).  No strings, no allocation, no locks on the hot
//    path; ring registration (once per thread) takes a mutex.
//
// The rings are bounded: when a thread records more than the ring
// capacity the oldest events are overwritten and counted as dropped --
// the tallies stay exact, only the per-event payloads age out.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "htmpll/obs/metrics.hpp"

namespace htmpll::obs {

/// Why a degradation happened.  Values are stable JSON identifiers via
/// diag_reason_name(); add new reasons at the end (before kCount).
enum class DiagReason : std::uint8_t {
  kPadeFallbackDefective = 0,   ///< eigenbasis numerically defective
  kPadeFallbackIllConditioned,  ///< kappa(V) above kMaxCondition
  kSimdBailoutOutOfRange,       ///< cexp lane outside the poly range
  kSimdBailoutNonFinite,        ///< cexp lane carried NaN/Inf input
  kSimdBailoutGuardTrip,        ///< pole-sum / rational-div guard lane
  kPlanCancellationRecompute,   ///< eval-plan near-pole recompute
  kPlanExpOverflowFallback,     ///< exp(pT) left the normal range
  kHtmTruncationSaturated,      ///< adaptive aliasing sum hit its pair cap
  kPoleSearchDegenerateStep,    ///< Newton lane dropped: df zero/non-finite
  kPoleSearchDiverged,          ///< Newton lane dropped: step left R^2
  kVcoEdgeBisectionFallback,    ///< VCO-edge Newton failed; bisection ran
  kParallelIncompleteJob,       ///< pooled job ran fewer than n indices
  kCount,
};

inline constexpr std::size_t kDiagReasonCount =
    static_cast<std::size_t>(DiagReason::kCount);

/// Stable dotted identifier ("pade_fallback.defective", ...): the name
/// of the reason's registry counter and the JSON key of its tally in
/// perfbench reports.
const char* diag_reason_name(DiagReason reason);

/// Records one diagnostic event: bumps the reason's tally and appends
/// {reason, payload} to the calling thread's ring.  No-op (one relaxed
/// load) while obs is disabled.
void diag_event(DiagReason reason, double payload = 0.0);

/// One event copied out of a ring at snapshot time.
struct DiagEvent {
  DiagReason reason = DiagReason::kCount;
  double payload = 0.0;
  int tid = 0;  ///< small per-thread id assigned at first event
};

/// Point-in-time copy of the diagnostic state.
struct DiagSnapshot {
  /// Per-reason tallies: the reasons' registry counters.
  std::array<std::uint64_t, kDiagReasonCount> tally{};
  /// Retained per-thread ring contents (bounded; oldest dropped first).
  std::vector<DiagEvent> events;
  /// Events lost to ring wrap-around since the last reset_counters().
  std::uint64_t dropped = 0;

  std::uint64_t total() const {
    std::uint64_t n = 0;
    for (std::uint64_t t : tally) n += t;
    return n;
  }
};

/// Consistent-per-field copy of tallies and ring contents.  Safe to
/// call while other threads emit; exact at quiescence.
DiagSnapshot diag_snapshot();

namespace detail {
/// Drops every retained event; reset_counters() calls it.
void clear_diag_events();
}  // namespace detail

}  // namespace htmpll::obs
