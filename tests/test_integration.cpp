// End-to-end validation: the HTM frequency-domain model (eq. 38) against
// the behavioral time-marching simulator -- the reproduction of the
// paper's Section 5 verification ("both are within 2%").  The probe's
// bins are exact, so each bound is ~3x the measured error, which is the
// first-order pulse-width error of the 1e-3 T probe: at every mark it
// scales with the modulation amplitude and does not move when the
// window doubles.
#include <numbers>

#include <gtest/gtest.h>

#include "htmpll/core/sampling_pll.hpp"
#include "htmpll/timedomain/probe.hpp"

namespace htmpll {
namespace {

constexpr double kW0 = 2.0 * std::numbers::pi;  // T = 1 s
const cplx j{0.0, 1.0};

struct Case {
  double ratio;     // w_UG / w0
  double f;         // w_m / w0
  double tol;       // relative tolerance on H00
};

class HtmVsSim : public ::testing::TestWithParam<Case> {};

TEST_P(HtmVsSim, BasebandTransferMatches) {
  const Case c = GetParam();
  const PllParameters params = make_typical_loop(c.ratio * kW0, kW0);
  const SamplingPllModel model(params);

  ProbeOptions opts;
  opts.settle_periods = 400.0;
  opts.measure_periods = 24;
  const TransferMeasurement meas =
      measure_baseband_transfer(params, c.f * kW0, opts);

  const cplx predicted = model.baseband_transfer(j * (c.f * kW0));
  const double rel_err =
      std::abs(meas.value - predicted) / std::abs(predicted);
  EXPECT_LT(rel_err, c.tol)
      << "ratio " << c.ratio << " f " << c.f << " measured |H|="
      << std::abs(meas.value) << " predicted |H|=" << std::abs(predicted);
}

// Ratios follow the paper's Fig. 6 family (w_UG/w0 up to 1/5); the
// sampled loop is unstable beyond ~0.28 for this gamma = 4 design, so
// larger ratios have no steady state to measure.
// Measured: 2.4e-5, 3.6e-4, 3.7e-4, 3.6e-3, 2.0e-3 and 1.4e-2.
INSTANTIATE_TEST_SUITE_P(
    Fig6Points, HtmVsSim,
    ::testing::Values(Case{0.1, 0.03, 7e-5}, Case{0.1, 0.1, 1.1e-3},
                      Case{0.2, 0.1, 1.1e-3}, Case{0.2, 0.25, 1.1e-2},
                      Case{0.25, 0.2, 6e-3}, Case{0.25, 0.35, 4.3e-2}));

TEST(HtmVsSimExtra, WorstFig6MarkErrorIsFirstOrderInAmplitude) {
  // At Fig. 6's worst mark (w_UG/w0 = 0.2, w = 2 w_UG) the probe's error
  // is the pulse-width error the Fig. 4 equivalence neglects, linear in
  // the modulation amplitude: quartering the amplitude quarters it
  // (measured 1.01 %, 0.257 % and 0.0645 % at 1e-3, 2.5e-4 and
  // 6.25e-5 T).  A small-signal error floor would flatten the ratio.
  const PllParameters params = make_typical_loop(0.2 * kW0, kW0);
  const SamplingPllModel model(params);
  const double w = 0.4 * kW0;
  const cplx predicted = model.baseband_transfer(j * w);
  double err[2];
  for (int i = 0; i < 2; ++i) {
    ProbeOptions opts;
    opts.settle_periods = 400.0;
    opts.measure_periods = 24;
    opts.amplitude_fraction = i == 0 ? 1e-3 : 2.5e-4;
    const TransferMeasurement meas =
        measure_baseband_transfer(params, w, opts);
    err[i] = std::abs(meas.value - predicted) / std::abs(predicted);
  }
  EXPECT_GT(err[0] / err[1], 3.5) << err[0] << " vs " << err[1];
  EXPECT_LT(err[0] / err[1], 4.5) << err[0] << " vs " << err[1];
  EXPECT_LT(err[0], 0.02);  // the paper's claim, with the 1e-3 T probe
}

TEST(HtmVsSimExtra, LtiModelIsWorsePredictorForFastLoop) {
  // The whole point of the paper: for a fast loop the classical LTI
  // model misses what the simulator does; the HTM model does not.
  const double ratio = 0.25, f = 0.3;
  const PllParameters params = make_typical_loop(ratio * kW0, kW0);
  const SamplingPllModel model(params);
  ProbeOptions opts;
  opts.settle_periods = 400.0;
  opts.measure_periods = 24;
  const TransferMeasurement meas =
      measure_baseband_transfer(params, f * kW0, opts);
  const cplx s = j * (f * kW0);
  const double err_htm =
      std::abs(meas.value - model.baseband_transfer(s));
  const double err_lti =
      std::abs(meas.value - model.lti_baseband_transfer(s));
  EXPECT_LT(err_htm, 0.3 * err_lti);
}

}  // namespace
}  // namespace htmpll
