// Exact piecewise propagation of a linear state-space system driven by a
// piecewise-constant input (the charge-pump current between PFD events).
//
// There is no ODE-solver step error anywhere in the transient simulator:
// each segment is advanced with the exact discrete propagator of the
// state matrix (spectral when the matrix admits a well-conditioned modal
// factorization, Van Loan expm otherwise), so the comparison against the
// HTM model (the paper's "within 2%" claim) measures modeling error, not
// integration error.
#pragma once

#include <cstdint>
#include <limits>
#include <vector>

#include "htmpll/linalg/expm.hpp"
#include "htmpll/linalg/spectral.hpp"
#include "htmpll/lti/state_space.hpp"

namespace htmpll {

namespace obs {
class Counter;
}  // namespace obs

/// Builds the augmented system [filter states; theta] with
/// theta' = kvco * (C_f x + D_f i); the output row reports the filter
/// output y (the VCO control).  Shared by the transient simulators.
StateSpace augment_with_phase(const StateSpace& filter, double kvco);

/// Hit/miss counters of a step-propagator store (an integrator's
/// one-entry memo or a SharedPropagatorStore).  Every miss costs one
/// propagator construction (a Van Loan matrix exponential on the Pade
/// path, n scalar exponentials on the spectral path) and
/// `lookups - misses` is the number saved.  This is a thin per-store
/// view; when instrumentation is enabled (HTMPLL_OBS=1) the same events
/// also feed the process-wide obs counters
/// "timedomain.propagator_{lookups,misses}".
struct PropagatorCacheStats {
  std::uint64_t lookups = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;  ///< shared-store slot replacements
  std::uint64_t hits() const { return lookups - misses; }
  /// hits / lookups; 0 before the first lookup.
  double hit_rate() const { return ratio(lookups - misses); }
  /// misses / lookups; 0 before the first lookup.
  double miss_rate() const { return ratio(misses); }
  /// evictions / lookups; 0 before the first lookup.
  double eviction_rate() const { return ratio(evictions); }

 private:
  double ratio(std::uint64_t part) const {
    return lookups == 0 ? 0.0
                        : static_cast<double>(part) /
                              static_cast<double>(lookups);
  }
};

/// Shared step-propagator store for lockstep ensembles: one
/// direct-mapped cache (keyed on the exact bit pattern of h) serving
/// EVERY member integrator of a worker's ensemble block, so a step
/// length built once -- edge searches quantize onto the same
/// reference-edge grid across members -- is never rebuilt per member.
/// Slots keep their matrix storage across replacements, so a miss on
/// the spectral path costs n scalar exponentials and zero allocations.
/// Propagators are pure functions of (A, B, h); sharing and eviction
/// policy never change results, only the build count.  NOT thread-safe:
/// one store per worker, wired via
/// PiecewiseExactIntegrator::set_shared_store.
class SharedPropagatorStore {
 public:
  /// Power-of-two slot count.  Direct-mapped: a collision evicts, so
  /// the table trades a little rebuild work (builds are cheap via
  /// make_into) for an O(1) lookup with no probe chains or index
  /// maintenance on the miss path.  Deliberately small: on noisy
  /// (divergent-h) workloads most hits are the commit immediately
  /// reusing the last edge-search step length, which any size serves,
  /// and a slot table that stays cache-resident beats a larger one
  /// whose hash-spread rebuilds touch cold lines (64..512 slots bench
  /// within noise of each other; 4096 measurably slower).
  static constexpr std::size_t kDefaultSlots = 256;

  /// `factory` must outlive the store (typically member 0's integrator
  /// factory).  `slots` is rounded up to a power of two.
  explicit SharedPropagatorStore(const PropagatorFactory& factory,
                                 std::size_t slots = kDefaultSlots);

  const PropagatorFactory& factory() const { return factory_; }
  const PropagatorCacheStats& stats() const { return stats_; }

  /// Propagator for step length h > 0; built on demand.  phi0/gamma1
  /// are bit-identical to factory().make(h); gamma2 is left EMPTY on
  /// the spectral path -- every lockstep consumer advances with a
  /// piecewise-constant input (u1 == u0), which never reads Gamma2, and
  /// skipping it trims the per-miss rebuild.
  const StepPropagator& get(double h);

  /// Publishes the stats() deltas accumulated since the last flush to
  /// the process-wide obs counters.  get() itself only bumps the local
  /// struct -- the miss-dominated lookup stream would otherwise pay an
  /// atomic per event -- so owners (the ensemble engine) flush once per
  /// run segment; totals at observation points are unchanged.
  void flush_counters();

 private:
  struct Slot {
    double h = 0.0;
    bool used = false;
    StepPropagator prop;
  };

  const PropagatorFactory& factory_;
  std::vector<Slot> slots_;
  std::size_t mask_ = 0;
  PropagatorCacheStats stats_;
  PropagatorCacheStats flushed_;  ///< stats_ already published via flush
  // Process-wide telemetry mirrors, bound once so the miss-dominated
  // get() path skips the function-local-static guard per call.
  obs::Counter* lookups_counter_ = nullptr;
  obs::Counter* misses_counter_ = nullptr;
  obs::Counter* evictions_counter_ = nullptr;
};

class PiecewiseExactIntegrator {
 public:
  /// `use_spectral` false forces the Van Loan expm path for every
  /// propagator build (bit-identical to the pre-spectral engine)
  /// regardless of the global spectral::enabled() switch.
  explicit PiecewiseExactIntegrator(StateSpace ss, bool use_spectral = true);

  std::size_t order() const { return ss_.order(); }
  const StateSpace& system() const { return ss_; }

  /// True when propagator builds are served by the one-time modal
  /// factorization instead of a per-step expm.
  bool spectral_propagators() const { return factory_.is_spectral(); }
  const PropagatorFactory& propagator_factory() const { return factory_; }

  const RVector& state() const { return x_; }
  void set_state(RVector x);

  /// Overwrites the state from `order()` doubles spaced `stride` apart
  /// (stride 1 for a plain array, the block width for an SoA column).
  /// No validation, no allocation -- the lockstep ensemble commit path.
  void set_state_raw(const double* x, std::size_t stride = 1) {
    for (std::size_t i = 0; i < x_.size(); ++i) x_[i] = x[i * stride];
  }

  /// Serves ALL propagator lookups from `store` instead of the private
  /// memo (nullptr reverts).  The store must be built from a factory
  /// of the same system; results never change, only where builds
  /// happen.  Lifetime is the caller's problem (ensemble engines own
  /// both the store and the member integrators).
  void set_shared_store(SharedPropagatorStore* store);

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
  /// an offset of 0 returns the current last component.  With a
  /// phase-augmented spectral factorization this takes one modal
  /// theta-row contraction per offset and no propagator lookup; other
  /// systems take the plain peek_into path.  Throws on a negative or
  /// NaN offset.
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
  SharedPropagatorStore* shared_ = nullptr;

  // One-entry propagator memo: the last step length built and its
  // Gamma2-free propagator (see SharedPropagatorStore::get; every peek
  // and advance holds the input constant over the step).  A lookup of
  // the same h -- typically a commit taking the step its edge search
  // peeked last -- returns it; any other h rebuilds it in place, which
  // on the spectral path costs n scalar exponentials and no allocation.
  // That rebuild is cheaper than the hash index a keyed cache needs to
  // avoid it.  NaN matches no step.  Results never depend on hits vs
  // misses.
  mutable double memo_h_ = std::numeric_limits<double>::quiet_NaN();
  mutable StepPropagator memo_;
  mutable PropagatorCacheStats stats_;
  mutable RVector scratch_;  ///< advance() staging, swapped into x_
};

}  // namespace htmpll
