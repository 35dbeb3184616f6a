#include "htmpll/timedomain/lptv_vco_sim.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "htmpll/util/check.hpp"

namespace htmpll {

IsfWaveform::IsfWaveform(HarmonicCoefficients isf, double kvco, double w0)
    : isf_(std::move(isf)), kvco_(kvco), w0_(w0) {
  HTMPLL_REQUIRE(w0_ > 0.0 && std::isfinite(w0_),
                 "ISF waveform needs a finite w0 > 0");
  HTMPLL_REQUIRE(std::isfinite(kvco_), "ISF waveform needs a finite kvco");
  // A physical ISF is real: coefficients must be conjugate-symmetric.
  for (int k = 0; k <= isf_.max_harmonic(); ++k) {
    const cplx diff = isf_[k] - std::conj(isf_[-k]);
    HTMPLL_REQUIRE(std::abs(diff) <=
                       1e-9 * std::max(1.0, std::abs(isf_[k])),
                   "ISF coefficients must be conjugate-symmetric "
                   "(real waveform)");
  }
}

double IsfWaveform::operator()(double t) const {
  double v = isf_[0].real();
  for (int k = 1; k <= isf_.max_harmonic(); ++k) {
    const cplx c = isf_[k];
    const double arg = static_cast<double>(k) * w0_ * t;
    v += 2.0 * (c.real() * std::cos(arg) - c.imag() * std::sin(arg));
  }
  return kvco_ * v;
}

LptvPllTransientSim::LptvPllTransientSim(const PllParameters& params,
                                         HarmonicCoefficients isf,
                                         ReferenceModulation mod,
                                         LptvTransientConfig cfg)
    : params_(validate_pll_parameters(params)),
      isf_(std::move(isf), params_.kvco, params_.w0),
      mod_(mod),
      cfg_(cfg),
      t_period_(params.period()),
      icp_(params.icp),
      filter_(to_state_space(params.filter.impedance())),
      ref_edges_(mod_, t_period_),
      x_(filter_.order(), 0.0) {
  HTMPLL_REQUIRE(cfg_.substeps_per_period >= 8,
                 "need at least 8 RK4 substeps per period");
  validate_transient_setup(mod_, cfg_.sample_interval, t_period_);
  if (cfg_.sample_interval == 0.0) cfg_.sample_interval = t_period_ / 8.0;
}

LptvPllTransientSim::Derivative LptvPllTransientSim::rhs(
    double t, const RVector& x, double theta, double current) const {
  Derivative d;
  d.dx.resize(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    double acc = filter_.b(i, 0) * current;
    for (std::size_t j = 0; j < x.size(); ++j) {
      acc += filter_.a(i, j) * x[j];
    }
    d.dx[i] = acc;
  }
  const double y = filter_.output(x, current);
  // eq. 22, unapproximated: theta' = v(t + theta) * u(t).
  d.dtheta = isf_(t + theta) * y;
  return d;
}

void LptvPllTransientSim::rk4_step(double t, double h, double current) {
  const RVector x0 = x_;
  const double th0 = theta_;
  auto add = [](const RVector& a, const RVector& b, double s) {
    RVector c(a.size());
    for (std::size_t i = 0; i < a.size(); ++i) c[i] = a[i] + s * b[i];
    return c;
  };
  const Derivative k1 = rhs(t, x0, th0, current);
  const Derivative k2 = rhs(t + 0.5 * h, add(x0, k1.dx, 0.5 * h),
                            th0 + 0.5 * h * k1.dtheta, current);
  const Derivative k3 = rhs(t + 0.5 * h, add(x0, k2.dx, 0.5 * h),
                            th0 + 0.5 * h * k2.dtheta, current);
  const Derivative k4 =
      rhs(t + h, add(x0, k3.dx, h), th0 + h * k3.dtheta, current);
  for (std::size_t i = 0; i < x_.size(); ++i) {
    x_[i] = x0[i] + h / 6.0 *
                        (k1.dx[i] + 2.0 * k2.dx[i] + 2.0 * k3.dx[i] +
                         k4.dx[i]);
  }
  theta_ = th0 + h / 6.0 *
                     (k1.dtheta + 2.0 * k2.dtheta + 2.0 * k3.dtheta +
                      k4.dtheta);
}

void LptvPllTransientSim::maybe_record(double t_prev, double theta_prev,
                                       double t) {
  if (!cfg_.record) {
    next_sample_ = static_cast<std::int64_t>(
                       std::floor(t / cfg_.sample_interval)) + 1;
    return;
  }
  // Records any sample instants inside (t_prev, t], linearly
  // interpolating theta across the substep (the O(h^2) interpolation
  // error is far below the RK4 integration error).
  while (static_cast<double>(next_sample_) * cfg_.sample_interval <= t) {
    const double ts = static_cast<double>(next_sample_) *
                      cfg_.sample_interval;
    double th = theta_;
    if (ts < t && t > t_prev) {
      const double frac = (ts - t_prev) / (t - t_prev);
      th = theta_prev + frac * (theta_ - theta_prev);
    }
    sample_t_.push_back(ts);
    sample_theta_.push_back(th);
    sample_theta_ref_.push_back(mod_.value(ts));
    ++next_sample_;
  }
}

void LptvPllTransientSim::run_until(double t_end) {
  HTMPLL_REQUIRE(std::isfinite(t_end), "run_until: t_end must be finite");
  const double h_nominal =
      t_period_ / static_cast<double>(cfg_.substeps_per_period);
  const double eps = 1e-12 * t_period_;

  while (t_ < t_end) {
    const double current = pfd_.pump_current(icp_);

    const double t_ref = std::max(ref_edges_.edge(n_ref_), t_);

    const double bound = std::min(t_ref, t_end);
    const double target_vco = static_cast<double>(n_vco_) * t_period_;
    bool vco_fired = false;

    while (t_ < bound) {
      const double h = std::min(h_nominal, bound - t_);
      const RVector x_save = x_;
      const double th_save = theta_;
      rk4_step(t_, h, current);
      if (t_ + h + theta_ >= target_vco) {
        // The VCO edge fires inside this substep: bisect the partial
        // step length tau on g(tau) = t + tau + theta(tau) - target.
        double lo = 0.0, hi = h;
        for (int it = 0; it < 60; ++it) {
          const double mid = 0.5 * (lo + hi);
          x_ = x_save;
          theta_ = th_save;
          if (mid > 0.0) rk4_step(t_, mid, current);
          const double g = t_ + mid + theta_ - target_vco;
          if (g < 0.0) {
            lo = mid;
          } else {
            hi = mid;
          }
          if (hi - lo <= eps) break;
        }
        x_ = x_save;
        theta_ = th_save;
        const double tau = 0.5 * (lo + hi);
        if (tau > 0.0) rk4_step(t_, tau, current);
        const double t_before = t_;
        t_ += tau;
        maybe_record(t_before, th_save, t_);
        pfd_.on_vco_edge();
        ++n_vco_;
        ++events_;
        vco_fired = true;
        break;
      }
      t_ += h;
      maybe_record(t_ - h, th_save, t_);
    }

    if (!vco_fired && t_ranges_hit_ref(t_ref, t_end, eps)) {
      pfd_.on_reference_edge();
      ++n_ref_;
      ++events_;
    }
  }
}

bool LptvPllTransientSim::t_ranges_hit_ref(double t_ref, double t_end,
                                           double eps) const {
  return t_ref <= t_end && t_ >= t_ref - eps;
}

void LptvPllTransientSim::run_periods(double n) {
  run_until(t_ + n * t_period_);
}

void LptvPllTransientSim::clear_samples() {
  sample_t_.clear();
  sample_theta_.clear();
  sample_theta_ref_.clear();
}

TransferMeasurement measure_baseband_transfer_lptv(
    const PllParameters& params, const HarmonicCoefficients& isf,
    double omega_m, const ProbeOptions& opts) {
  HTMPLL_REQUIRE(omega_m > 0.0 && std::isfinite(omega_m),
                 "modulation frequency must be positive and finite");
  validate_probe_options(opts);
  const double t_period = params.period();
  const double tm = 2.0 * std::numbers::pi / omega_m;

  ReferenceModulation mod;
  mod.amplitude = opts.amplitude_fraction * t_period;
  mod.omega = omega_m;

  // Sampling at a multiple of w0 (T/8 is 8 w0) folds the sidebands
  // H_{n,0} at w_m + n w0 exactly onto the bin.  At (8 + 0.618...) w0,
  // the golden-ratio offset, none lands on it; the nearest folded
  // sidebands have |n| >= 9.
  constexpr double kSamplesPerPeriod = 8.0 + 0.6180339887498949;
  LptvTransientConfig cfg;
  cfg.sample_interval =
      std::min(tm / 16.0, t_period / kSamplesPerPeriod);
  cfg.record = false;

  LptvPllTransientSim sim(params, isf, mod, cfg);
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
