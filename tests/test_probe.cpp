#include <cmath>
#include <cstring>
#include <numbers>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "htmpll/timedomain/probe.hpp"

namespace htmpll {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(SingleBin, RecoversKnownGainAndPhase) {
  // y = 0.5 x delayed by 30 degrees at w = 2.
  const double w = 2.0;
  const cplx h_true = 0.5 * std::exp(cplx{0.0, -kPi / 6.0});
  std::vector<double> t, x, y;
  const int n = 4096;
  const double dt = (40.0 * kPi / w) / n;  // 20 cycles
  for (int k = 0; k < n; ++k) {
    const double tk = k * dt;
    t.push_back(tk);
    x.push_back(std::sin(w * tk));
    y.push_back(0.5 * std::sin(w * tk - kPi / 6.0));
  }
  const cplx h = single_bin_transfer(t, y, x, w);
  EXPECT_NEAR(std::abs(h - h_true), 0.0, 1e-6);
}

TEST(SingleBin, RejectsAdditiveToneAtOtherFrequency) {
  // A strong interferer 7 bins away must be suppressed by the window.
  const double w = 1.0;
  std::vector<double> t, x, y;
  const int n = 8192;
  const double span = 32.0 * 2.0 * kPi / w;  // 32 cycles
  const double dt = span / n;
  const double w_int = w * (1.0 + 7.0 / 32.0);
  for (int k = 0; k < n; ++k) {
    const double tk = k * dt;
    t.push_back(tk);
    x.push_back(std::cos(w * tk));
    y.push_back(2.0 * std::cos(w * tk) + 5.0 * std::sin(w_int * tk));
  }
  const cplx h = single_bin_transfer(t, y, x, w);
  EXPECT_NEAR(std::abs(h - cplx{2.0}), 0.0, 2e-2);
}

TEST(SingleBin, ValidatesInput) {
  const std::vector<double> t{1.0, 2.0};
  EXPECT_THROW(single_bin_transfer(t, {1.0}, {1.0, 2.0}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(single_bin_transfer(t, {1.0, 2.0}, {1.0, 2.0}, 1.0),
               std::invalid_argument);  // too short
}

/// single_bin_ratio as written with one complex exponential per sample
/// and bin: the value reference for its one-sincos form.
cplx single_bin_ratio_cexp(const std::vector<double>& t,
                           const std::vector<double>& y, double omega_y,
                           const std::vector<double>& x, double omega_x) {
  const std::size_t n = t.size();
  cplx ybin{0.0}, xbin{0.0};
  for (std::size_t k = 0; k < n; ++k) {
    const double hann =
        0.5 * (1.0 - std::cos(2.0 * std::numbers::pi *
                              static_cast<double>(k) /
                              static_cast<double>(n - 1)));
    ybin += hann * y[k] * std::exp(cplx{0.0, -omega_y * t[k]});
    xbin += hann * x[k] * std::exp(cplx{0.0, -omega_x * t[k]});
  }
  return ybin / xbin;
}

TEST(SingleBin, OneSincosPerSampleMatchesComplexExpBitwise) {
  // Random records of 8..20000 samples reaching up to 1e4 periods, with
  // the baseband case (one frequency for both bins), distinct bins, and
  // a band probe's output bin above w0.
  const double w0 = 2.0 * kPi;  // T = 1
  std::mt19937_64 rng(15u);
  std::uniform_int_distribution<std::size_t> length(8, 20000);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::normal_distribution<double> value(0.0, 1.0);
  const auto same = [](cplx a, cplx b) {
    return std::memcmp(&a, &b, sizeof(cplx)) == 0;
  };
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = length(rng);
    const double span = 1e4 * unit(rng);
    const double t0 = (1e4 - span) * unit(rng);
    std::vector<double> t(n), y(n), x(n);
    for (std::size_t k = 0; k < n; ++k) {
      t[k] = t0 + span * static_cast<double>(k) / static_cast<double>(n);
      y[k] = value(rng);
      x[k] = value(rng);
    }
    const double wm = (0.001 + 0.489 * unit(rng)) * w0;
    const double band = static_cast<double>(1 + trial % 8);
    for (double wy : {wm, (0.001 + 0.489 * unit(rng)) * w0, band * w0 + wm}) {
      EXPECT_TRUE(same(single_bin_ratio(t, y, wy, x, wm),
                       single_bin_ratio_cexp(t, y, wy, x, wm)))
          << "trial " << trial << " n " << n << " wy " << wy << " wx " << wm;
    }
  }
}

TEST(Probe, OptionsValidated) {
  const PllParameters p = make_typical_loop(0.2 * 2.0 * kPi, 2.0 * kPi);
  ProbeOptions opts;
  opts.samples_per_period = 2;
  EXPECT_THROW(measure_baseband_transfer(p, 1.0, opts),
               std::invalid_argument);
  opts = ProbeOptions{};
  opts.measure_periods = 0;
  EXPECT_THROW(measure_baseband_transfer(p, 1.0, opts),
               std::invalid_argument);
  EXPECT_THROW(measure_baseband_transfer(p, 0.0), std::invalid_argument);
}

TEST(Probe, InBandMeasurementTracksReference) {
  // Deep inside the loop bandwidth H_00 ~ 1.
  const double w0 = 2.0 * kPi;
  const PllParameters p = make_typical_loop(0.2 * w0, w0);
  ProbeOptions opts;
  opts.settle_periods = 120.0;
  opts.measure_periods = 12;
  const TransferMeasurement m =
      measure_baseband_transfer(p, 0.01 * w0, opts);
  EXPECT_NEAR(std::abs(m.value), 1.0, 0.03);
  EXPECT_GT(m.events, 100u);
  EXPECT_GT(m.simulated_time, 0.0);
}

}  // namespace
}  // namespace htmpll
