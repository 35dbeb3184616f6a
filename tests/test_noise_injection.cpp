// Stochastic end-to-end validation of the noise-transfer model: white
// charge-pump current noise injected into the behavioral simulator,
// measured output phase PSD compared against the HTM prediction with
// harmonic folding.
#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "htmpll/fracn/sigma_delta.hpp"  // averaged_periodogram
#include "htmpll/noise/noise.hpp"
#include "htmpll/timedomain/pll_sim.hpp"

namespace htmpll {
namespace {

constexpr double kW0 = 2.0 * std::numbers::pi;  // T = 1

/// Two-sided PSD of the injected held-white current: sigma^2 T sinc^2.
double held_noise_psd(double w, double sigma, double t) {
  const double x = 0.5 * w * t;
  const double sinc = std::abs(x) < 1e-12 ? 1.0 : std::sin(x) / x;
  return sigma * sigma * t * sinc * sinc;
}

TEST(NoiseInjection, QuiescentWithZeroSigma) {
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  PllTransientSim sim(p);
  sim.set_noise_current(0.0, 1);
  sim.run_periods(50.0);
  EXPECT_NEAR(sim.theta(), 0.0, 1e-9);
}

TEST(NoiseInjection, ConfigRejectedAfterStartOrNegative) {
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  PllTransientSim sim(p);
  EXPECT_THROW(sim.set_noise_current(-1.0, 1), std::invalid_argument);
  sim.run_periods(1.0);
  EXPECT_THROW(sim.set_noise_current(1e-3, 1), std::invalid_argument);
}

TEST(NoiseInjection, OutputPsdMatchesHtmPrediction) {
  // Small noise keeps the loop linear; compare the Welch periodogram of
  // theta against the folded charge-pump noise transfer.
  const double ratio = 0.1;
  const PllParameters p = make_typical_loop(ratio * kW0, kW0);
  const double sigma = 1e-4 * p.icp;

  TransientConfig cfg;
  cfg.sample_interval = 0.25;  // 4 samples per period
  PllTransientSim sim(p, {}, cfg);
  sim.set_noise_current(sigma, 12345);
  sim.set_recording(false);
  sim.run_periods(300.0);  // settle into the stochastic steady state
  sim.set_recording(true);
  sim.clear_samples();
  sim.run_periods(16384.0);

  const std::vector<double> freqs{0.02 * kW0, 0.06 * kW0, 0.15 * kW0,
                                  0.3 * kW0};
  const auto measured = averaged_periodogram(sim.theta_samples(), freqs,
                                             cfg.sample_interval, 48);

  const SamplingPllModel model(p);
  const NoiseAnalysis na(model, 12);
  // The held noise's sinc^2 PSD is no power law, so the test folds it
  // itself: the sum output_psd_from_charge_pump computes, in its order.
  const auto predict = [&](double w) {
    double acc = 0.0;
    for (int m = -na.fold_harmonics(); m <= na.fold_harmonics(); ++m) {
      const double wm = std::abs(w + static_cast<double>(m) * model.w0());
      if (wm == 0.0) continue;
      acc += std::norm(na.charge_pump_transfer(m, w)) *
             held_noise_psd(wm, sigma, 1.0);
    }
    return acc;
  };
  for (std::size_t i = 0; i < freqs.size(); ++i) {
    const double predicted = predict(freqs[i]);
    const double ratio_db =
        10.0 * std::log10(measured[i] / predicted);
    EXPECT_LT(std::abs(ratio_db), 2.5)
        << "w/w0 = " << freqs[i] / kW0 << " measured " << measured[i]
        << " predicted " << predicted;
  }
}

TEST(NoiseInjection, OutputVarianceScalesWithSigmaSquared) {
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  auto variance = [&](double sigma) {
    PllTransientSim sim(p);
    sim.set_noise_current(sigma, 777);
    sim.set_recording(false);
    sim.run_periods(200.0);
    sim.set_recording(true);
    sim.clear_samples();
    sim.run_periods(2000.0);
    double mean = 0.0;
    for (double th : sim.theta_samples()) mean += th;
    mean /= static_cast<double>(sim.theta_samples().size());
    double var = 0.0;
    for (double th : sim.theta_samples()) {
      var += (th - mean) * (th - mean);
    }
    return var / static_cast<double>(sim.theta_samples().size());
  };
  const double v1 = variance(1e-4 * p.icp);
  const double v2 = variance(2e-4 * p.icp);
  // Same seed, same noise path: exact quadratic scaling of the linear
  // response.
  EXPECT_NEAR(v2 / v1, 4.0, 0.2);
}

}  // namespace
}  // namespace htmpll
