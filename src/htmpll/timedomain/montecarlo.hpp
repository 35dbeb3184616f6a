// Batched Monte Carlo execution of the transient simulator.
//
// Every stochastic workload in this repo (held charge-pump noise runs,
// fractional-N dither ensembles, acquisition grids, settling batches) is
// an embarrassingly parallel map over independent simulations.  This
// layer runs them on the shared thread pool with the same determinism
// contract as the frequency sweeps: run i always uses the RNG stream
// derived from (base_seed, i) by a fixed splitmix64 mix and writes only
// its own output slot, so ensembles are bit-identical for any thread
// count -- and individual runs can be reproduced in isolation from their
// (base_seed, index) pair alone.
#pragma once

#include <cstdint>
#include <vector>

#include "htmpll/obs/trace.hpp"
#include "htmpll/parallel/thread_pool.hpp"
#include "htmpll/timedomain/pll_sim.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll {

/// Deterministic per-run RNG seed: splitmix64 of base_seed + run_index.
/// Adjacent indices yield statistically independent streams; the map is
/// fixed forever so recorded ensembles stay reproducible.
std::uint64_t mc_stream_seed(std::uint64_t base_seed,
                             std::uint64_t run_index);

/// out[i] = fn(i, mc_stream_seed(base_seed, i)) for i in [0, n_runs),
/// evaluated on the pool.  Deterministic slot ownership, like
/// parallel_map.  Rejects n_runs == 0 (an empty ensemble is always a
/// caller bug, not a degenerate experiment).
template <class T, class F>
std::vector<T> monte_carlo_map(std::size_t n_runs, std::uint64_t base_seed,
                               F&& fn,
                               ThreadPool& pool = ThreadPool::global()) {
  HTMPLL_REQUIRE(n_runs >= 1, "monte_carlo_map needs at least one run");
  std::vector<T> out(n_runs);
  pool.parallel_for(n_runs, 1, [&](std::size_t i) {
    HTMPLL_TRACE_SPAN("mc.run");
    out[i] = fn(i, mc_stream_seed(base_seed, i));
  });
  return out;
}

/// One run of a held charge-pump-noise ensemble: moments of the
/// recorded theta stream after settling.
struct NoiseRunStats {
  double theta_mean = 0.0;
  double theta_rms = 0.0;   ///< rms about the run mean (seconds)
  double theta_peak = 0.0;  ///< max |theta - mean|
  std::size_t events = 0;
};

struct NoiseEnsembleOptions {
  double settle_periods = 200.0;   ///< recording off
  double measure_periods = 2000.0; ///< recording on
  double sample_interval = 0.0;    ///< 0 selects T/8; negative rejected
};

/// Runs n_runs independent simulations of `params` with held white
/// charge-pump noise of the given sigma; run i is one PllTransientSim
/// seeded with mc_stream_seed(base_seed, i).  Pool-parallel and
/// bit-identical for any thread count.  Rejects n_runs == 0, a negative
/// or non-finite sigma, negative settle/non-positive measure horizons
/// and negative sample intervals with std::invalid_argument.
std::vector<NoiseRunStats> run_noise_ensemble(
    const PllParameters& params, double sigma, std::uint64_t base_seed,
    std::size_t n_runs, const NoiseEnsembleOptions& opts = {},
    ThreadPool& pool = ThreadPool::global());

/// One lock-acquisition experiment: a loop and an initial relative
/// frequency offset df/f.
struct AcquisitionCase {
  PllParameters params;
  double rel_offset = 0.0;
};

struct AcquisitionOptions {
  double tol_fraction = 1e-6;   ///< lock when |pulse| < tol_fraction * T
  double max_periods = 3000.0;  ///< give up after this many periods
  double chunk_periods = 5.0;   ///< lock-detector polling granularity
};

/// Periods until phase lock for every case (-1 when max_periods is
/// exhausted), one PllTransientSim per case, distributed over the pool.
/// Lock is PllTransientSim::is_locked at tol_fraction * T, polled every
/// chunk_periods.  Coincident edges count as zero-width pulses, so a
/// case that starts in lock (a zero or sub-1e-9 offset) reads locked at
/// the first poll after PulseHistory::kCapacity (8) periods, not -1.
/// The simulations are noise-free and independent, so the batch is
/// deterministic.  Rejects an empty case list, non-positive options and
/// a non-finite offset with std::invalid_argument.
std::vector<double> acquisition_periods(
    const std::vector<AcquisitionCase>& cases,
    const AcquisitionOptions& opts = {},
    ThreadPool& pool = ThreadPool::global());

/// Simulated reference-phase-step responses, one loop per entry:
/// out[k][n] ~ theta(nT)/delta + 1 (normalized unit step, out[k][0] = 0)
/// with `count` samples per loop, one PllTransientSim per loop.
/// Pool-parallel and deterministic.  Rejects an empty loop list,
/// count == 0 and a zero or non-finite delta with
/// std::invalid_argument.
std::vector<std::vector<double>> step_response_batch(
    const std::vector<PllParameters>& loops, std::size_t count,
    double delta, ThreadPool& pool = ThreadPool::global());

}  // namespace htmpll
