#include "htmpll/timedomain/sample_hold_sim.hpp"

#include <algorithm>
#include <cmath>

#include "htmpll/util/check.hpp"

namespace htmpll {

SampleHoldPllSim::SampleHoldPllSim(const PllParameters& params,
                                   ReferenceModulation mod,
                                   TransientConfig cfg)
    : params_(validate_pll_parameters(params)),
      mod_(mod),
      cfg_(cfg),
      t_period_(params.period()),
      icp_(params.icp),
      aug_(augment_with_phase(to_state_space(params.filter.impedance()),
                              params.kvco)),
      ref_edges_(mod_, t_period_) {
  validate_transient_setup(mod_, cfg_.sample_interval, t_period_);
  if (cfg_.sample_interval == 0.0) cfg_.sample_interval = t_period_ / 8.0;
}

double SampleHoldPllSim::theta() const { return aug_.last_state(); }

void SampleHoldPllSim::record_range(double t_begin, double t_end) {
  if (bin_ != nullptr) bin_->add_segment(t_begin, t_end, current_);
  if (!cfg_.record) {
    next_sample_ = static_cast<std::int64_t>(
                       std::floor(t_end / cfg_.sample_interval)) + 1;
    return;
  }
  samples_.record_segment(aug_, mod_, cfg_.sample_interval, t_begin, t_end,
                          current_, next_sample_);
}

void SampleHoldPllSim::run_until(double t_end) {
  HTMPLL_REQUIRE(std::isfinite(t_end), "run_until: t_end must be finite");
  while (t_ < t_end) {
    const double t_ref = std::max(ref_edges_.edge(n_ref_), t_);
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

void SampleHoldPllSim::clear_samples() { samples_.clear(); }

cplx SampleHoldPllSim::measure_theta_bin(double omega, double width) {
  return detail::run_theta_bin_window(
      bin_, aug_, t_, omega, width, t_period_,
      [this](double t_end) { run_until(t_end); });
}

}  // namespace htmpll
