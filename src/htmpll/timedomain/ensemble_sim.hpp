// Lockstep SoA ensemble engine for Monte Carlo transient simulation.
//
// Every stochastic workload on the transient simulator (held
// charge-pump noise ensembles, acquisition grids, settling batches)
// advances M independent PllTransientSim instances over the SAME
// horizon.  Run scalar, each member pays its own propagator builds and
// its own n-vector state update per event-loop step.  This engine
// advances the whole ensemble through ONE event loop instead:
//
//  * every member's next step is planned (PllTransientSim::plan_step --
//    pure, no state change), and members whose step length h matches
//    BIT FOR BIT are bucketed together;
//  * each bucket of >= 2 members is advanced by one shared propagator
//    applied to an n x M SoA state block via the batch_step_advance
//    kernel (linalg/batch_kernels.hpp) -- one matrix·multi-column
//    product instead of M matrix·vector products;
//  * members with a divergent h (acquisition transients, Newton-refined
//    edges) fall back to the per-member scalar commit for that round
//    and re-enter batching at the next common edge -- the bucketing is
//    recomputed every round, so retirement and re-admission are free;
//  * ALL propagator lookups (batched and scalar lanes, edge-solver
//    peeks) are served by one per-engine
//    SharedPropagatorStore, so a step length solved by any member is
//    built once per worker instead of once per member.
//
// Determinism contract: each member owns its state, its RNG stream and
// its recording buffers, every h-dependent value is computed with the
// scalar code path's exact operation sequence (see batch_step_advance),
// and propagators are pure functions of (A, B, h) -- so the engine is
// bit-identical to sequential per-member runs for any ensemble width,
// bucketing outcome and thread count.
//
// HTMPLL_ENSEMBLE=0 (or off), mc::set_ensemble_enabled(false) or
// MonteCarloOptions::use_ensemble_engine = false route the Monte Carlo
// drivers (timedomain/montecarlo.hpp) back to independent per-member
// runs.
#pragma once

#include <cstdint>
#include <vector>

#include "htmpll/timedomain/pll_sim.hpp"

namespace htmpll {

namespace mc {

/// Process-wide ensemble-engine switch: HTMPLL_ENSEMBLE=0/off makes
/// every Monte Carlo driver use the scalar per-member chain; 1/on (or
/// unset) honors MonteCarloOptions::use_ensemble_engine.  The
/// environment is read once and cached.
bool ensemble_enabled();

/// Test/bench pin overriding the environment policy.
void set_ensemble_enabled(bool on);

}  // namespace mc

/// Advances M identically-parameterized transient simulations in
/// lockstep (see file comment).  Configure members individually through
/// member() (seeds, initial conditions, recording) before the first
/// run_* call, exactly like standalone simulators.
class EnsembleTransientEngine {
 public:
  EnsembleTransientEngine(const PllParameters& params, std::size_t m,
                          ReferenceModulation mod = {},
                          TransientConfig cfg = {});

  std::size_t size() const { return sims_.size(); }
  PllTransientSim& member(std::size_t k) { return sims_[k]; }
  const PllTransientSim& member(std::size_t k) const { return sims_[k]; }

  /// Advances every non-retired member to absolute time t_end,
  /// bit-identical to calling member(k).run_until(t_end) in sequence.
  void run_until(double t_end);
  /// Advances every non-retired member by n reference periods.
  void run_periods(double n);

  /// Permanently drops member k from subsequent lockstep rounds
  /// (acquisition drivers retire members as they lock; the member's
  /// state stays readable).
  void retire(std::size_t k) { retired_[k] = 1; }
  bool retired(std::size_t k) const { return retired_[k] != 0; }

  // --- diagnostics ---
  /// Member-steps advanced through the SoA kernel / the scalar path.
  std::uint64_t batched_member_steps() const { return batched_steps_; }
  std::uint64_t scalar_member_steps() const { return scalar_steps_; }
  /// Lockstep planning rounds executed.
  std::uint64_t rounds() const { return rounds_; }
  /// Lookup/build counters of the shared propagator store.
  const PropagatorCacheStats& store_stats() const { return store_.stats(); }

 private:
  /// One planned member step awaiting commit, keyed for h-bucketing by
  /// the bit pattern of the step length.
  struct Lane {
    std::uint64_t h_bits;
    double h;
    std::uint32_t member;
  };

  double t_period_;
  std::size_t order_;
  std::vector<PllTransientSim> sims_;  ///< sized in ctor, never resized
  SharedPropagatorStore store_;        ///< refs sims_[0]'s factory
  std::vector<char> retired_;

  // Per-round scratch (no steady-state allocation).
  std::vector<TransientStepPlan> plans_;
  std::vector<Lane> lanes_;
  std::vector<char> active_;
  std::vector<double> x_block_;    ///< n x M gather (row-major SoA)
  std::vector<double> out_block_;  ///< n x M kernel output
  std::vector<double> u_block_;    ///< per-member held input

  std::uint64_t batched_steps_ = 0;
  std::uint64_t scalar_steps_ = 0;
  std::uint64_t rounds_ = 0;
};

}  // namespace htmpll
