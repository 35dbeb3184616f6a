// Validation of the inter-band HTM elements H_{n,0} (Fig. 2): reference
// modulation at w_m must appear in the simulated VCO phase as sidebands
// at n w0 + w_m with exactly the magnitudes the closed-loop HTM predicts
// -- "signal transfers to other frequency bands can be studied as well
// by considering the other elements of H(s)".
#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "htmpll/core/sampling_pll.hpp"
#include "htmpll/timedomain/probe.hpp"

namespace htmpll {
namespace {

const cplx j{0.0, 1.0};
constexpr double kW0 = 2.0 * std::numbers::pi;

TEST(BandTransfer, SingleBinRatioWithDistinctFrequencies) {
  // y carries 0.25x's amplitude at 3x the stimulus frequency.
  const double wx = 1.0, wy = 3.0;
  std::vector<double> t, x, y;
  const int n = 8192;
  const double span = 24.0 * 2.0 * std::numbers::pi / wx;
  for (int k = 0; k < n; ++k) {
    const double tk = span * k / n;
    t.push_back(tk);
    x.push_back(std::cos(wx * tk));
    y.push_back(0.25 * std::cos(wy * tk + 0.5));
  }
  const cplx h = single_bin_ratio(t, y, wy, x, wx);
  EXPECT_NEAR(std::abs(h), 0.25, 1e-3);
}

struct BandCase {
  int band;
  double ratio;
  double f;         // w_m / w0
  double tol;       // relative magnitude tolerance
  double tol_cplx;  // relative complex (magnitude and phase) tolerance
};

class BandTransferVsModel : public ::testing::TestWithParam<BandCase> {};

TEST_P(BandTransferVsModel, SidebandMagnitudeMatchesHtm) {
  const BandCase c = GetParam();
  const PllParameters params = make_typical_loop(c.ratio * kW0, kW0);
  const SamplingPllModel model(params);

  ProbeOptions opts;
  opts.settle_periods = 350.0;
  opts.measure_periods = 24;
  const double wm = c.f * kW0;
  const TransferMeasurement meas =
      measure_band_transfer(params, c.band, wm, opts);

  // H_{n,0}(j w_m) = V~_n / (1 + lambda) (eq. 36).
  const cplx predicted = model.closed_loop(c.band, j * wm);
  const double rel =
      std::abs(std::abs(meas.value) - std::abs(predicted)) /
      std::abs(predicted);
  EXPECT_LT(rel, c.tol) << "band " << c.band << " |measured| "
                        << std::abs(meas.value) << " |predicted| "
                        << std::abs(predicted);
  // The exact bin measures n < 0 at its negative frequency, so the
  // phase holds for every band.
  EXPECT_LT(std::abs(meas.value - predicted) / std::abs(predicted),
            c.tol_cplx)
      << "band " << c.band << " measured " << meas.value << " predicted "
      << predicted;
}

// Bounds are ~3x the measured errors: magnitude 1.1e-4, 1.1e-4, 8.4e-5,
// 2.8e-5, 1.9e-5 and 8.6e-5; complex 5.8e-4, 5.9e-4, 5.9e-4, 2.0e-4,
// 4.3e-4 and 6.0e-4.
INSTANTIATE_TEST_SUITE_P(
    Sidebands, BandTransferVsModel,
    ::testing::Values(BandCase{1, 0.2, 0.12, 3.5e-4, 1.8e-3},
                      BandCase{-1, 0.2, 0.12, 3.5e-4, 1.8e-3},
                      BandCase{2, 0.2, 0.12, 2.5e-4, 1.8e-3},
                      BandCase{1, 0.1, 0.07, 1e-4, 6e-4},
                      BandCase{-2, 0.15, 0.1, 6e-5, 1.3e-3},
                      BandCase{-2, 0.2, 0.12, 2.6e-4, 1.8e-3}));

TEST(BandTransfer, BasebandBandIsTheOrdinaryMeasurement) {
  const PllParameters params = make_typical_loop(0.15 * kW0, kW0);
  ProbeOptions opts;
  opts.settle_periods = 250.0;
  opts.measure_periods = 16;
  const double wm = 0.09 * kW0;
  const TransferMeasurement a = measure_band_transfer(params, 0, wm, opts);
  const TransferMeasurement b =
      measure_baseband_transfer(params, wm, opts);
  EXPECT_NEAR(std::abs(a.value - b.value), 0.0, 1e-9);
}

TEST(BandTransfer, SidebandsDecayWithBandIndex) {
  // |H_{n,0}| ~ |A(jw + j n w0)| falls off like 1/n^2 (Fig. 2 picture).
  const PllParameters params = make_typical_loop(0.2 * kW0, kW0);
  const SamplingPllModel model(params);
  const cplx s = j * (0.1 * kW0);
  double prev = std::abs(model.closed_loop(0, s));
  for (int n = 1; n <= 5; ++n) {
    const double mag = std::abs(model.closed_loop(n, s));
    EXPECT_LT(mag, prev) << "n = " << n;
    prev = mag;
  }
}

TEST(BandTransfer, ValidatesArguments) {
  const PllParameters params = make_typical_loop(0.1 * kW0, kW0);
  EXPECT_THROW(measure_band_transfer(params, 9, 0.1 * kW0),
               std::invalid_argument);
  EXPECT_THROW(measure_band_transfer(params, 1, 0.0),
               std::invalid_argument);
}

}  // namespace
}  // namespace htmpll
