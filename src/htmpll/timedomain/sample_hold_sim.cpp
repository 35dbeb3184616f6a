#include "htmpll/timedomain/sample_hold_sim.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "htmpll/util/check.hpp"

namespace htmpll {

SampleHoldPllSim::SampleHoldPllSim(const PllParameters& params,
                                   ReferenceModulation mod,
                                   TransientConfig cfg)
    : params_(params),
      mod_(mod),
      cfg_(cfg),
      t_period_(params.period()),
      icp_(params.icp),
      aug_(augment_with_phase(to_state_space(params.filter.impedance()),
                              params.kvco),
           cfg.propagator_cache, cfg.use_spectral_propagators),
      theta_index_(aug_.order() - 1) {
  HTMPLL_REQUIRE(std::abs(mod_.amplitude) < 0.25 * t_period_,
                 "reference modulation must stay small-signal (< T/4)");
  if (cfg_.sample_interval <= 0.0) cfg_.sample_interval = t_period_ / 8.0;
}

double SampleHoldPllSim::theta() const {
  return aug_.state()[theta_index_];
}

double SampleHoldPllSim::next_reference_edge(double target) const {
  double t = target - mod_.value(target);
  for (int it = 0; it < 50; ++it) {
    const double g = t + mod_.value(t) - target;
    const double gp = 1.0 + mod_.slope(t);
    const double dt = -g / gp;
    t += dt;
    if (std::abs(dt) <= 1e-13 * t_period_) break;
  }
  return std::max(t, t_);
}

void SampleHoldPllSim::record_range(double t_begin, double t_end) {
  if (!cfg_.record) {
    next_sample_ = static_cast<std::int64_t>(
                       std::floor(t_end / cfg_.sample_interval)) + 1;
    return;
  }
  while (true) {
    const double ts = static_cast<double>(next_sample_) *
                      cfg_.sample_interval;
    if (ts > t_end) break;
    if (ts >= t_begin) {
      sample_t_.push_back(ts);
      sample_theta_.push_back(aug_.peek_last(ts - t_begin, current_));
      sample_theta_ref_.push_back(mod_.value(ts));
    }
    ++next_sample_;
  }
}

void SampleHoldPllSim::run_until(double t_end) {
  while (t_ < t_end) {
    const double t_ref =
        next_reference_edge(static_cast<double>(n_ref_) * t_period_);
    const double t_evt = std::min(t_ref, t_end);

    record_range(t_, t_evt);
    aug_.advance(t_evt - t_, current_);
    t_ = t_evt;
    if (t_evt < t_ref) break;  // hit t_end first

    // Sampling instant: theta_ref(t_ref) = n T - t_ref by definition of
    // the edge; the detector latches e = theta_ref - theta and the pump
    // holds Icp * e / T until the next edge.
    const double theta_ref_now =
        static_cast<double>(n_ref_) * t_period_ - t_ref;
    const double error = theta_ref_now - theta();
    current_ = icp_ * error / t_period_;
    ++n_ref_;
    ++events_;
  }
}

void SampleHoldPllSim::run_periods(double n) {
  run_until(t_ + n * t_period_);
}

void SampleHoldPllSim::clear_samples() {
  sample_t_.clear();
  sample_theta_.clear();
  sample_theta_ref_.clear();
}

TransferMeasurement measure_baseband_transfer_sample_hold(
    const PllParameters& params, double omega_m, const ProbeOptions& opts) {
  HTMPLL_REQUIRE(omega_m > 0.0, "modulation frequency must be positive");
  const double t_period = params.period();
  const double tm = 2.0 * std::numbers::pi / omega_m;

  ReferenceModulation mod;
  mod.amplitude = opts.amplitude_fraction * t_period;
  mod.omega = omega_m;

  TransientConfig cfg;
  cfg.sample_interval =
      std::min(tm / static_cast<double>(opts.samples_per_period),
               t_period / 8.0);
  cfg.record = false;

  SampleHoldPllSim sim(params, mod, cfg);
  const double settle = std::max(opts.settle_periods * t_period, 4.0 * tm);
  sim.run_until(settle);
  sim.set_recording(true);
  sim.clear_samples();
  sim.run_until(settle + static_cast<double>(opts.measure_periods) * tm);

  TransferMeasurement out;
  out.value = single_bin_transfer(sim.sample_times(), sim.theta_samples(),
                                  sim.theta_ref_samples(), omega_m);
  out.simulated_time = sim.time();
  out.events = sim.event_count();
  return out;
}

}  // namespace htmpll
