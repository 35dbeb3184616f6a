// Process-wide metrics registry: named counters and gauges with a
// relaxed-atomic hot path.
//
// The registry is the measurement substrate of the library and holds
// every number obs keeps: the linalg, parallel, core, noise and
// timedomain layers increment counters for their expensive primitives
// (expm evaluations, eigen-factorizations, lambda(s) evaluations, plan
// grid points, noise fold terms, propagator-memo traffic, PFD events,
// thread-pool jobs), the diagnostic log (obs/diag.hpp) keeps one counter
// per degradation reason, and health gauges keep the worst value of a
// numerical-health measure (timedomain.max_eigenbasis_condition,
// timedomain.max_eigenpair_residual).  perfbench snapshots them to
// split a pass's time across the layers.
//
// Cost model:
//  * disabled (the default): every instrumentation site is one relaxed
//    atomic load of a process-wide flag plus an untaken branch -- no
//    stores, no contention.  perfbench times every pass with obs
//    disabled, so this cost sits inside its end-to-end pass times.
//  * enabled (HTMPLL_OBS=1 or obs::enable()): relaxed fetch_add per
//    event.  Instrumented sites are coarse (one per matrix factorization
//    or pool job, never per matrix element), so even the enabled path
//    stays in the noise of the work it measures.
//
// Thread safety: metric objects are plain atomics (TSan-clean under the
// thread pool); registration takes a mutex but hands out stable
// references, so hot paths register once (function-local static) and
// then touch only the atomic.
#pragma once

#include <atomic>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

namespace htmpll::obs {

namespace detail {
/// Process-wide instrumentation switch.  Constant-initialized to false
/// and flipped by enable()/disable() or the HTMPLL_OBS environment
/// variable (read once at static-initialization time in metrics.cpp).
extern std::atomic<bool> g_enabled;
}  // namespace detail

/// True when instrumentation is recording.  One relaxed load.
inline bool enabled() {
  return detail::g_enabled.load(std::memory_order_relaxed);
}
void enable();
void disable();

/// Monotonic event counter.  add() is a no-op while disabled.
class Counter {
 public:
  void add(std::uint64_t n = 1) {
    if (enabled()) v_.fetch_add(n, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> v_{0};
};

/// Health gauge: the largest value raised since the last reset (0
/// before any).  raise() is a no-op while disabled and ignores NaN.
class Gauge {
 public:
  void raise(double v) {
    if (!enabled() || std::isnan(v)) return;
    double cur = v_.load(std::memory_order_relaxed);
    while (v > cur && !v_.compare_exchange_weak(cur, v,
                                                std::memory_order_relaxed)) {
    }
  }
  double value() const { return v_.load(std::memory_order_relaxed); }
  void reset() { v_.store(0.0, std::memory_order_relaxed); }

 private:
  std::atomic<double> v_{0.0};
};

enum class MetricKind { kCounter, kGauge };

/// Point-in-time copy of one metric, ordered by name in a snapshot.
struct MetricSample {
  std::string name;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t count = 0;  ///< counter value
  double value = 0.0;       ///< gauge value
};

struct MetricsSnapshot {
  std::vector<MetricSample> samples;

  const MetricSample* find(const std::string& name) const;
  /// Counter value by name; 0 when absent.
  std::uint64_t counter_value(const std::string& name) const;
  /// Gauge value by name; 0.0 when absent.
  double gauge_value(const std::string& name) const;
};

/// Registered metric accessors: the first call with a given name creates
/// the metric, later calls return the same object (stable address for
/// the lifetime of the process).  Registering the same name as two
/// different kinds throws std::invalid_argument.
Counter& counter(const std::string& name);
Gauge& gauge(const std::string& name);

/// Consistent point-in-time copy of every registered metric, sorted by
/// name.  ("Consistent" per metric: each sample is atomic per field; the
/// snapshot as a whole is taken under the registry lock, so no metric
/// can be registered halfway through.)
MetricsSnapshot snapshot();

/// Zeroes every counter and gauge and drops the retained diagnostic
/// events (obs/diag.hpp).  perfbench calls this before each traced
/// pass; only safe at quiescence.
void reset_counters();

}  // namespace htmpll::obs
