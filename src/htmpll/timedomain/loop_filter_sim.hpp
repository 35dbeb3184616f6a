// Exact piecewise propagation of a linear state-space system driven by a
// piecewise-constant input (the charge-pump current between PFD events).
//
// There is no ODE-solver step error anywhere in the transient simulator:
// each segment is advanced with the exact discrete propagator of the
// state matrix, so the comparison against the HTM model (the paper's
// "within 2%" claim) measures modeling error, not integration error.
// The propagator is modal (PropagatorFactory) for the phase-augmented
// loop: its filter block is to_state_space's companion matrix, whose
// modes are the roots of the filter's denominator.  Any other system,
// or a denominator with a repeated or near-repeated root, takes the
// Van Loan expm.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "htmpll/linalg/expm.hpp"
#include "htmpll/lti/state_space.hpp"
#include "htmpll/timedomain/spectral.hpp"

namespace htmpll {

/// Builds the augmented system [filter states; theta] with
/// theta' = kvco * (C_f x + D_f i); the output row reports the filter
/// output y (the VCO control).  Shared by the transient simulators.
StateSpace augment_with_phase(const StateSpace& filter, double kvco);

/// Hit/miss counters of an integrator's one-entry step-propagator
/// memo.  Every miss costs one propagator construction (a Van Loan
/// matrix exponential on the Pade path, n scalar exponentials on the
/// spectral path) and `lookups - misses` is the number saved.  This is
/// a thin per-integrator view; when instrumentation is enabled
/// (HTMPLL_OBS=1) the same events also feed the process-wide obs
/// counters "timedomain.propagator_{lookups,misses}".
struct PropagatorCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t misses = 0;
  std::uint64_t hits() const { return lookups - misses; }
  /// hits / lookups; 0 before the first lookup.
  double hit_rate() const { return ratio(lookups - misses); }
  /// misses / lookups; 0 before the first lookup.
  double miss_rate() const { return ratio(misses); }

 private:
  double ratio(std::uint64_t part) const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(part) /
                              static_cast<double>(lookups);
  }
};

class PiecewiseExactIntegrator {
 public:
  /// `use_spectral` false builds every propagator with the Van Loan
  /// oracle, make_propagator, bit for bit.
  explicit PiecewiseExactIntegrator(StateSpace ss, bool use_spectral = true);

  std::size_t order() const { return ss_.order(); }
  const StateSpace& system() const { return ss_; }

  /// True when propagator builds are served by the one-time modal
  /// factorization instead of a per-step expm.
  bool spectral_propagators() const { return factory_.is_spectral(); }
  const PropagatorFactory& propagator_factory() const { return factory_; }

  const RVector& state() const { return x_; }
  void set_state(RVector x);

  /// y = C x + D u at the current state.
  double output(double u) const { return ss_.output(x_, u); }

  /// State after holding input `u` for `h` seconds, without committing.
  RVector peek(double h, double u) const;

  /// Allocation-free peek: writes the peeked state into `out` (resized
  /// to order()).  Bit-identical to peek(); `out` must not alias the
  /// internal state.
  void peek_into(double h, double u, RVector& out) const;

  /// Last state component of the peek at each of `count` offsets of one
  /// segment: out[i] is bit-identical to peek(h[i], u)[order()-1], and
  /// an offset of 0 returns the current last component.  With the modal
  /// factorization this takes one theta-row contraction per offset and
  /// no propagator lookup; the Van Loan path takes plain peek_into.
  /// Throws on a negative or non-finite offset.
  void peek_last_many(const double* h, std::size_t count, double u,
                      double* out) const;

  /// Output at the peeked state.
  double peek_output(double h, double u) const;

  /// Commit: advance the state by `h` under constant input `u`.
  void advance(double h, double u);

  /// Lookup/build counters of the propagator memo.
  const PropagatorCacheStats& cache_stats() const { return stats_; }

 private:
  const StepPropagator& propagator(double h) const;

  StateSpace ss_;
  PropagatorFactory factory_;
  RVector x_;

  // One-entry propagator memo: the last step length built and its
  // propagator.  A lookup of the same h -- typically a commit taking
  // the step its edge search peeked last -- returns it; any other h
  // rebuilds it in place, which on the spectral path costs n scalar
  // exponentials and no allocation.  That rebuild is cheaper than the
  // hash index a keyed cache needs to avoid it.  NaN matches no step.
  // Results never depend on hits vs misses.
  mutable double memo_h_ = std::numeric_limits<double>::quiet_NaN();
  mutable StepPropagator memo_;
  mutable PropagatorCacheStats stats_;
  mutable RVector scratch_;  ///< advance() staging, swapped into x_
};

}  // namespace htmpll
