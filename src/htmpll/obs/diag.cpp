#include "htmpll/obs/diag.hpp"

#include <atomic>
#include <cmath>
#include <cstring>
#include <memory>
#include <mutex>

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
};
static_assert(sizeof(kReasonNames) / sizeof(kReasonNames[0]) ==
              kDiagReasonCount);

constexpr const char* kGaugeNames[kHealthGaugeCount] = {
    "max_eigenbasis_condition",   // kMaxEigenbasisCondition
    "max_eigenpair_residual",     // kMaxEigenpairResidual
};
static_assert(sizeof(kGaugeNames) / sizeof(kGaugeNames[0]) ==
              kHealthGaugeCount);

/// Process-wide per-reason tallies (exact even when ring events age
/// out) and monotonic-max gauges.
std::atomic<std::uint64_t> g_tally[kDiagReasonCount];
std::atomic<double> g_gauge[kHealthGaugeCount];

/// Per-thread event ring, modeled on the trace ring (trace.cpp):
/// single writer, slots published by a release store of `head`, so a
/// concurrent snapshot reads a consistent prefix without locking the
/// writer.
class DiagBuffer {
 public:
  static constexpr std::size_t kCapacity = 1 << 10;  // 1024 events

  struct Slot {
    std::atomic<std::uint8_t> reason{0};
    std::atomic<double> payload{0.0};
  };

  explicit DiagBuffer(int tid) : tid_(tid), slots_(kCapacity) {}

  void record(DiagReason reason, double payload) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[h % kCapacity];
    s.reason.store(static_cast<std::uint8_t>(reason),
                   std::memory_order_relaxed);
    s.payload.store(payload, std::memory_order_relaxed);
    head_.store(h + 1, std::memory_order_release);
  }

  void collect_into(std::vector<DiagEvent>& out) const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(h, kCapacity);
    for (std::uint64_t i = h - n; i < h; ++i) {
      const Slot& s = slots_[i % kCapacity];
      DiagEvent e;
      e.reason =
          static_cast<DiagReason>(s.reason.load(std::memory_order_relaxed));
      e.payload = s.payload.load(std::memory_order_relaxed);
      e.tid = tid_;
      if (e.reason < DiagReason::kCount) out.push_back(e);
    }
  }

  std::uint64_t dropped() const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return h > kCapacity ? h - kCapacity : 0;
  }

  void clear() { head_.store(0, std::memory_order_release); }

 private:
  int tid_;
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> head_{0};
};

std::mutex& diag_mutex() {
  static std::mutex mu;
  return mu;
}

/// All rings ever registered; shared ownership with each thread's
/// local handle so a ring survives its thread.  Leaked so snapshots
/// work during late static destruction.
std::vector<std::shared_ptr<DiagBuffer>>& buffers() {
  static auto* v = new std::vector<std::shared_ptr<DiagBuffer>>();
  return *v;
}

DiagBuffer& local_buffer() {
  thread_local std::shared_ptr<DiagBuffer> buf = [] {
    std::lock_guard<std::mutex> lock(diag_mutex());
    auto b =
        std::make_shared<DiagBuffer>(static_cast<int>(buffers().size()));
    buffers().push_back(b);
    return b;
  }();
  return *buf;
}

}  // namespace

const char* diag_reason_name(DiagReason reason) {
  const auto i = static_cast<std::size_t>(reason);
  return i < kDiagReasonCount ? kReasonNames[i] : "unknown";
}

bool diag_reason_from_name(std::string_view name, DiagReason& out) {
  for (std::size_t i = 0; i < kDiagReasonCount; ++i) {
    if (name == kReasonNames[i]) {
      out = static_cast<DiagReason>(i);
      return true;
    }
  }
  return false;
}

const char* health_gauge_name(HealthGauge gauge) {
  const auto i = static_cast<std::size_t>(gauge);
  return i < kHealthGaugeCount ? kGaugeNames[i] : "unknown";
}

void diag_event(DiagReason reason, double payload) {
  if (!enabled()) return;
  const auto i = static_cast<std::size_t>(reason);
  if (i >= kDiagReasonCount) return;
  g_tally[i].fetch_add(1, std::memory_order_relaxed);
  local_buffer().record(reason, payload);
}

void diag_gauge_max(HealthGauge gauge, double value) {
  if (!enabled()) return;
  const auto i = static_cast<std::size_t>(gauge);
  if (i >= kHealthGaugeCount || std::isnan(value)) return;
  double cur = g_gauge[i].load(std::memory_order_relaxed);
  while (value > cur && !g_gauge[i].compare_exchange_weak(
                            cur, value, std::memory_order_relaxed)) {
  }
}

DiagSnapshot diag_snapshot() {
  DiagSnapshot s;
  for (std::size_t i = 0; i < kDiagReasonCount; ++i) {
    s.tally[i] = g_tally[i].load(std::memory_order_relaxed);
  }
  for (std::size_t i = 0; i < kHealthGaugeCount; ++i) {
    s.gauge[i] = g_gauge[i].load(std::memory_order_relaxed);
  }
  std::lock_guard<std::mutex> lock(diag_mutex());
  for (const auto& b : buffers()) {
    b->collect_into(s.events);
    s.dropped += b->dropped();
  }
  return s;
}

std::uint64_t diag_dropped() {
  std::lock_guard<std::mutex> lock(diag_mutex());
  std::uint64_t n = 0;
  for (const auto& b : buffers()) n += b->dropped();
  return n;
}

void diag_reset() {
  for (auto& t : g_tally) t.store(0, std::memory_order_relaxed);
  for (auto& g : g_gauge) g.store(0.0, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(diag_mutex());
  for (const auto& b : buffers()) b->clear();
}

}  // namespace htmpll::obs
