#include <cmath>
#include <numbers>
#include <random>

#include <gtest/gtest.h>

#include "htmpll/core/calibration.hpp"
#include "htmpll/timedomain/probe.hpp"

namespace htmpll {
namespace {

const cplx j{0.0, 1.0};
constexpr double kW0 = 2.0 * std::numbers::pi;

/// Synthetic "measurement" from the model itself, optionally noisy.
CVector synth_data(const std::vector<double>& w, double w_ug, double gamma,
                   double noise, unsigned seed) {
  CVector h(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    h[i] = fitted_model_response(w_ug, gamma, kW0, w[i], false);
  }
  // std::normal_distribution requires a positive standard deviation, so
  // noise-free data draw nothing.
  if (noise > 0.0) {
    std::mt19937 rng(seed);
    std::normal_distribution<double> g(0.0, noise);
    for (cplx& x : h) x += cplx{g(rng), g(rng)};
  }
  return h;
}

const std::vector<double> kFreqs{0.02 * kW0, 0.06 * kW0, 0.12 * kW0,
                                 0.2 * kW0, 0.3 * kW0, 0.42 * kW0};

TEST(Calibration, RecoversExactParameters) {
  const double w_ug = 0.17 * kW0, gamma = 3.2;
  const CVector h = synth_data(kFreqs, w_ug, gamma, 0.0, 1);
  const LoopFitResult r = fit_typical_loop(kFreqs, h, kW0);
  EXPECT_TRUE(r.converged);
  EXPECT_NEAR(r.w_ug / w_ug, 1.0, 1e-6);
  EXPECT_NEAR(r.gamma / gamma, 1.0, 1e-5);
  EXPECT_LT(r.rms_residual, 1e-9);
}

TEST(Calibration, RobustToMeasurementNoise) {
  const double w_ug = 0.12 * kW0, gamma = 4.0;
  const CVector h = synth_data(kFreqs, w_ug, gamma, 0.01, 7);
  const LoopFitResult r = fit_typical_loop(kFreqs, h, kW0);
  EXPECT_NEAR(r.w_ug / w_ug, 1.0, 0.05);
  EXPECT_NEAR(r.gamma / gamma, 1.0, 0.25);
  EXPECT_LT(r.rms_residual, 0.05);
}

TEST(Calibration, ConvergesFromPoorInitialGuess) {
  const double w_ug = 0.22 * kW0, gamma = 5.5;
  const CVector h = synth_data(kFreqs, w_ug, gamma, 0.0, 3);
  LoopFitOptions opts;
  opts.initial_w_ug_frac = 0.02;
  opts.initial_gamma = 2.0;
  const LoopFitResult r = fit_typical_loop(kFreqs, h, kW0, opts);
  EXPECT_NEAR(r.w_ug / w_ug, 1.0, 1e-4);
  EXPECT_NEAR(r.gamma / gamma, 1.0, 1e-3);
}

TEST(Calibration, LtiFitIsStructurallyBiasedForFastLoops) {
  // Generate data from the TRUE (time-varying) loop at w_UG/w0 = 0.22,
  // then fit both flavors.  The LTI fit cannot represent the aliasing
  // terms, so its residual stays far above the TV fit's.
  const double w_ug = 0.22 * kW0, gamma = 4.0;
  const CVector h = synth_data(kFreqs, w_ug, gamma, 0.0, 5);
  const LoopFitResult tv = fit_typical_loop(kFreqs, h, kW0);
  LoopFitOptions lti_opts;
  lti_opts.use_lti_model = true;
  const LoopFitResult lti = fit_typical_loop(kFreqs, h, kW0, lti_opts);
  EXPECT_LT(tv.rms_residual, 1e-8);
  EXPECT_GT(lti.rms_residual, 50.0 * std::max(tv.rms_residual, 1e-12));
  // ...and the LTI fit mis-estimates the crossover.
  EXPECT_GT(std::abs(lti.w_ug / w_ug - 1.0), 0.02);
}

TEST(Calibration, WorksOnSimulatorMeasurements) {
  // End to end: "measure" with the behavioral simulator, fit, recover.
  const double ratio = 0.15, gamma = 4.0;
  const PllParameters p = make_typical_loop(ratio * kW0, kW0, gamma);
  std::vector<double> freqs{0.05 * kW0, 0.12 * kW0, 0.25 * kW0};
  CVector h;
  for (double wf : freqs) {
    ProbeOptions opts;
    opts.settle_periods = 300.0;
    opts.measure_periods = 16;
    h.push_back(measure_baseband_transfer(p, wf, opts).value);
  }
  const LoopFitResult r = fit_typical_loop(freqs, h, kW0);
  EXPECT_NEAR(r.w_ug / (ratio * kW0), 1.0, 0.03);
  EXPECT_NEAR(r.gamma / gamma, 1.0, 0.2);
}

TEST(Calibration, ValidatesInput) {
  const CVector h{cplx{1.0}, cplx{0.5}};
  EXPECT_THROW(fit_typical_loop({1.0}, h, kW0), std::invalid_argument);
  EXPECT_THROW(fit_typical_loop({1.0, 5.0}, CVector{cplx{1.0}}, kW0),
               std::invalid_argument);
  EXPECT_THROW(fit_typical_loop({1.0, 0.9 * kW0}, h, kW0),
               std::invalid_argument);  // beyond w0/2
  LoopFitOptions bad;
  bad.initial_gamma = 0.5;
  EXPECT_THROW(fit_typical_loop({1.0, 2.0}, h, kW0, bad),
               std::invalid_argument);
}

}  // namespace
}  // namespace htmpll
