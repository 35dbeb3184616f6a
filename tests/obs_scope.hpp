// Test helpers over the obs registry: ScopedObs switches instrumentation
// for one scope, and PropagatorMemoCounts reads the integrators'
// propagator-memo counters over one scope.  The registry is
// process-global, so both work on deltas and restore what they change.
#pragma once

#include <cstdint>

#include "htmpll/obs/metrics.hpp"

namespace htmpll {

/// Enables (or disables) obs for one scope and restores the prior state
/// after.
struct ScopedObs {
  bool was_enabled = obs::enabled();
  explicit ScopedObs(bool on) { on ? obs::enable() : obs::disable(); }
  ~ScopedObs() { was_enabled ? obs::enable() : obs::disable(); }
  ScopedObs(const ScopedObs&) = delete;
  ScopedObs& operator=(const ScopedObs&) = delete;
};

/// timedomain.propagator_{lookups,misses} added since construction.
/// Keeps obs recording for its lifetime.
class PropagatorMemoCounts {
 public:
  std::uint64_t lookups() const { return lookups_.value() - lookups0_; }
  std::uint64_t misses() const { return misses_.value() - misses0_; }
  std::uint64_t hits() const { return lookups() - misses(); }
  /// hits / lookups; 0 before the first lookup.
  double hit_rate() const {
    return lookups() == 0 ? 0.0
                          : static_cast<double>(hits()) /
                                static_cast<double>(lookups());
  }

 private:
  ScopedObs on_{true};
  obs::Counter& lookups_ = obs::counter("timedomain.propagator_lookups");
  obs::Counter& misses_ = obs::counter("timedomain.propagator_misses");
  std::uint64_t lookups0_ = lookups_.value();
  std::uint64_t misses0_ = misses_.value();
};

}  // namespace htmpll
