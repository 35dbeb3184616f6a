#include "htmpll/obs/diag.hpp"

#include <atomic>

#include "htmpll/obs/ring.hpp"

namespace htmpll::obs {

namespace {

/// Dotted JSON identifiers, indexed by DiagReason.  Order must match
/// the enum exactly (static_assert below).
constexpr const char* kReasonNames[kDiagReasonCount] = {
    "pade_fallback.defective",      // kPadeFallbackDefective
    "pade_fallback.ill_conditioned",// kPadeFallbackIllConditioned
    "simd_bailout.out_of_range",    // kSimdBailoutOutOfRange
    "simd_bailout.non_finite",      // kSimdBailoutNonFinite
    "simd_bailout.guard_trip",      // kSimdBailoutGuardTrip
    "eval_plan.cancellation_recompute",  // kPlanCancellationRecompute
    "eval_plan.exp_overflow_fallback",   // kPlanExpOverflowFallback
    "htm.truncation_saturated",     // kHtmTruncationSaturated
    "pole_search.degenerate_step",  // kPoleSearchDegenerateStep
    "pole_search.diverged",         // kPoleSearchDiverged
    "vco_edge.bisection_fallback",  // kVcoEdgeBisectionFallback
    "parallel.incomplete_job",      // kParallelIncompleteJob
};
static_assert(sizeof(kReasonNames) / sizeof(kReasonNames[0]) ==
              kDiagReasonCount);

/// Each reason's tally: its registry counter, registered on first use.
/// Exact even when ring events age out.
Counter& tally_counter(std::size_t reason) {
  static const std::array<Counter*, kDiagReasonCount> counters = [] {
    std::array<Counter*, kDiagReasonCount> c{};
    for (std::size_t i = 0; i < kDiagReasonCount; ++i) {
      c[i] = &counter(kReasonNames[i]);
    }
    return c;
  }();
  return *counters[reason];
}

/// One event: relaxed-atomic fields of the ring slot (obs/ring.hpp).
struct DiagSlot {
  std::atomic<std::uint8_t> reason{0};
  std::atomic<double> payload{0.0};

  void store(DiagReason r, double p) {
    reason.store(static_cast<std::uint8_t>(r), std::memory_order_relaxed);
    payload.store(p, std::memory_order_relaxed);
  }
  bool load(DiagEvent& out) const {
    out.reason =
        static_cast<DiagReason>(reason.load(std::memory_order_relaxed));
    out.payload = payload.load(std::memory_order_relaxed);
    return out.reason < DiagReason::kCount;
  }
};

/// The event rings, 1024 events per thread.  Leaked so snapshots work
/// during late static destruction.
detail::RingSet<DiagSlot>& event_rings() {
  static auto* rings = new detail::RingSet<DiagSlot>(1 << 10);
  return *rings;
}

}  // namespace

const char* diag_reason_name(DiagReason reason) {
  const auto i = static_cast<std::size_t>(reason);
  return i < kDiagReasonCount ? kReasonNames[i] : "unknown";
}

void diag_event(DiagReason reason, double payload) {
  if (!enabled()) return;
  const auto i = static_cast<std::size_t>(reason);
  if (i >= kDiagReasonCount) return;
  tally_counter(i).add();
  event_rings().local().record(reason, payload);
}

DiagSnapshot diag_snapshot() {
  DiagSnapshot s;
  for (std::size_t i = 0; i < kDiagReasonCount; ++i) {
    s.tally[i] = tally_counter(i).value();
  }
  event_rings().collect_into(s.events);
  s.dropped = event_rings().dropped();
  return s;
}

namespace detail {

void clear_diag_events() { event_rings().clear(); }

}  // namespace detail

}  // namespace htmpll::obs
