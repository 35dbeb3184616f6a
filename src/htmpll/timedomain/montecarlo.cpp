#include "htmpll/timedomain/montecarlo.hpp"

#include <algorithm>
#include <cmath>

#include "htmpll/obs/trace.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll {

namespace {

/// Moments of the recorded theta stream of one finished noise run.
NoiseRunStats reduce_noise_run(const PllTransientSim& sim) {
  const std::vector<double>& th = sim.theta_samples();
  NoiseRunStats st;
  st.events = sim.event_count();
  if (th.empty()) return st;
  for (double v : th) st.theta_mean += v;
  st.theta_mean /= static_cast<double>(th.size());
  for (double v : th) {
    const double d = v - st.theta_mean;
    st.theta_rms += d * d;
    st.theta_peak = std::max(st.theta_peak, std::abs(d));
  }
  st.theta_rms = std::sqrt(st.theta_rms / static_cast<double>(th.size()));
  return st;
}

/// Normalized step response of one finished run.
std::vector<double> reduce_step_response(const PllTransientSim& sim,
                                         std::size_t count, double delta) {
  std::vector<double> resp;
  resp.reserve(count);
  resp.push_back(0.0);  // t = 0
  for (std::size_t k = 0; k + 1 < count && k < sim.theta_samples().size();
       ++k) {
    resp.push_back(sim.theta_samples()[k] / delta + 1.0);
  }
  return resp;
}

}  // namespace

std::uint64_t mc_stream_seed(std::uint64_t base_seed,
                             std::uint64_t run_index) {
  // splitmix64 (Steele/Lea/Flood): a bijective avalanche mix, so
  // distinct (base, index) pairs never collide on base + index.
  std::uint64_t z = base_seed + 0x9e3779b97f4a7c15ull * (run_index + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

std::vector<NoiseRunStats> run_noise_ensemble(const PllParameters& params,
                                              double sigma,
                                              std::uint64_t base_seed,
                                              std::size_t n_runs,
                                              const NoiseEnsembleOptions& opts,
                                              ThreadPool& pool) {
  HTMPLL_TRACE_SPAN("mc.noise_ensemble");
  HTMPLL_REQUIRE(n_runs >= 1, "noise ensemble needs at least one run");
  HTMPLL_REQUIRE(sigma >= 0.0 && std::isfinite(sigma),
                 "noise sigma must be non-negative and finite");
  HTMPLL_REQUIRE(opts.settle_periods >= 0.0 && opts.measure_periods > 0.0,
                 "noise ensemble needs settle >= 0 and measure > 0 periods");

  return monte_carlo_map<NoiseRunStats>(
      n_runs, base_seed,
      [&](std::size_t, std::uint64_t seed) {
        TransientConfig cfg;
        cfg.record = false;
        PllTransientSim sim(params, {}, cfg);
        sim.set_noise_current(sigma, static_cast<unsigned>(seed));
        sim.run_periods(opts.settle_periods);
        sim.set_recording(true);
        sim.clear_samples();
        sim.run_periods(opts.measure_periods);
        return reduce_noise_run(sim);
      },
      pool);
}

std::vector<double> acquisition_periods(
    const std::vector<AcquisitionCase>& cases, ThreadPool& pool) {
  HTMPLL_TRACE_SPAN("mc.acquisition_batch");
  HTMPLL_REQUIRE(!cases.empty(),
                 "acquisition batch needs at least one case");
  std::vector<double> out(cases.size());

  pool.parallel_for(cases.size(), 1, [&](std::size_t i) {
    const AcquisitionCase& c = cases[i];
    PllTransientSim sim(c.params);
    sim.set_recording(false);
    sim.set_initial_frequency_offset(c.rel_offset);
    const double tol = kAcquisitionTolerance * c.params.period();
    double elapsed = 0.0;
    double locked_at = -1.0;
    while (elapsed < kAcquisitionMaxPeriods) {
      sim.run_periods(kAcquisitionPollPeriods);
      elapsed += kAcquisitionPollPeriods;
      if (sim.is_locked(tol)) {
        locked_at = elapsed;
        break;
      }
    }
    out[i] = locked_at;
  });
  return out;
}

std::vector<std::vector<double>> step_response_batch(
    const std::vector<PllParameters>& loops, std::size_t count,
    double delta, ThreadPool& pool) {
  HTMPLL_TRACE_SPAN("mc.step_response_batch");
  HTMPLL_REQUIRE(!loops.empty(),
                 "step-response batch needs at least one loop");
  HTMPLL_REQUIRE(count >= 1, "need at least one step-response sample");
  HTMPLL_REQUIRE(delta != 0.0 && std::isfinite(delta),
                 "step size must be non-zero and finite");
  std::vector<std::vector<double>> out(loops.size());

  pool.parallel_for(loops.size(), 1, [&](std::size_t i) {
    const PllParameters& p = loops[i];
    TransientConfig cfg;
    cfg.sample_interval = p.period();
    PllTransientSim sim(p, {}, cfg);
    sim.set_initial_theta(-delta);
    sim.run_periods(static_cast<double>(count) + 2.0);
    out[i] = reduce_step_response(sim, count, delta);
  });
  return out;
}

}  // namespace htmpll
