// Tests for the generalized PFD shape ("extension to arbitrary PFDs"):
// the zero-order-hold sample-and-hold detector versus the paper's
// impulse-train charge pump.
#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "htmpll/core/pole_search.hpp"
#include "htmpll/core/stability.hpp"
#include "htmpll/timedomain/sample_hold_sim.hpp"

namespace htmpll {
namespace {

const cplx j{0.0, 1.0};
constexpr double kW0 = 2.0 * std::numbers::pi;

SamplingPllModel zoh_model(double ratio) {
  SamplingPllOptions opts;
  opts.pfd_shape = PfdShape::kZeroOrderHold;
  return SamplingPllModel(make_typical_loop(ratio * kW0, kW0),
                          HarmonicCoefficients(cplx{1.0}), opts);
}

SamplingPllModel impulse_model(double ratio) {
  return SamplingPllModel(make_typical_loop(ratio * kW0, kW0));
}

TEST(PfdShape, ZohLambdaMatchesTruncatedSum) {
  // The exact (coth + periodic prefactor) evaluation against the raw
  // V~ row sum at high truncation.
  const SamplingPllModel m = zoh_model(0.15);
  const cplx s = j * (0.11 * kW0);
  const cplx exact = m.lambda(s, LambdaMethod::kExact, 0);
  const cplx truncated = m.lambda(s, LambdaMethod::kTruncated, 4000);
  EXPECT_NEAR(std::abs(truncated - exact) / std::abs(exact), 0.0, 2e-3);
  const cplx adaptive = m.lambda(s, LambdaMethod::kAdaptive, 0);
  EXPECT_NEAR(std::abs(adaptive - exact) / std::abs(exact), 0.0, 1e-8);
}

TEST(PfdShape, ZohReducesToImpulseAtLowFrequency) {
  // H_zoh(jw) -> 1 for w << w0: both shapes agree deep in band.
  const SamplingPllModel zoh = zoh_model(0.1);
  const SamplingPllModel imp = impulse_model(0.1);
  const cplx s = j * (0.002 * kW0);
  const cplx a = zoh.baseband_transfer(s);
  const cplx b = imp.baseband_transfer(s);
  EXPECT_NEAR(std::abs(a - b) / std::abs(b), 0.0, 5e-3);
}

TEST(PfdShape, VtildeCarriesExactZohShape) {
  // For a TI VCO, V~_n(zoh)/V~_n(imp) = H_zoh(s + j n w0) =
  // (1 - e^{-sT})/((s + j n w0) T) exactly.
  const SamplingPllModel zoh = zoh_model(0.1);
  const SamplingPllModel imp = impulse_model(0.1);
  const double t = 2.0 * std::numbers::pi / kW0;
  const cplx s = j * (0.13 * kW0);
  for (int n : {-2, 0, 3}) {
    const cplx sn = s + cplx{0.0, n * kW0};
    const cplx expected = (1.0 - std::exp(-s * t)) / (sn * t);
    const cplx got = zoh.vtilde_element(n, s) / imp.vtilde_element(n, s);
    EXPECT_NEAR(std::abs(got - expected), 0.0, 1e-10) << "n = " << n;
  }
  // Sanity: |H_zoh(jw)| is the sinc rolloff with -wT/2 phase.
  const double w = 0.1 * kW0;
  const cplx h = (1.0 - std::exp(-j * w * t)) / (j * w * t);
  const double wt2 = 0.5 * w * t;
  EXPECT_NEAR(std::abs(h), std::sin(wt2) / wt2, 1e-12);
  EXPECT_NEAR(std::arg(h), -wt2, 1e-12);
}

TEST(PfdShape, ZohErodesEffectiveMargin) {
  const EffectiveMargins imp = effective_margins(impulse_model(0.15));
  const EffectiveMargins zoh = effective_margins(zoh_model(0.15));
  ASSERT_TRUE(imp.eff_found && zoh.eff_found);
  EXPECT_LT(zoh.eff_phase_margin_deg, imp.eff_phase_margin_deg - 2.0);
}

TEST(PfdShape, ZohRaisesHalfRateBoundary) {
  // Two competing effects of the hold: its phase lag erodes the margin
  // near crossover (see ZohErodesEffectiveMargin), but its sinc rolloff
  // attenuates the half-rate aliases (|H_zoh(j w0/2)| = 2/pi ~ 0.64),
  // so the hard lambda(j w0/2) = -1 boundary moves UP, not down.
  // Bisection on the half-rate criterion for both shapes.
  auto boundary = [](PfdShape shape) {
    return bisect_stability_boundary(
               [shape](double r) {
                 SamplingPllOptions opts;
                 opts.pfd_shape = shape;
                 const SamplingPllModel m(make_typical_loop(r * kW0, kW0),
                                          HarmonicCoefficients(cplx{1.0}),
                                          opts);
                 return half_rate_lambda(m) > -1.0;
               },
               0.05, 0.5, 40)
        .midpoint();
  };
  const double b_imp = boundary(PfdShape::kImpulse);
  const double b_zoh = boundary(PfdShape::kZeroOrderHold);
  EXPECT_NEAR(b_imp, 0.276, 0.002);
  EXPECT_GT(b_zoh, b_imp + 0.05);
}

TEST(PfdShape, RankOneHtmMatchesDenseForZoh) {
  const SamplingPllModel m = zoh_model(0.2);
  const cplx s = j * (0.13 * kW0);
  const Htm a = m.closed_loop_htm(s, 6);
  const Htm b = m.closed_loop_htm_dense(s, 6);
  EXPECT_LT((a.matrix() - b.matrix()).max_abs(), 1e-10);
}

TEST(PfdShape, PoleSearchRejectsZoh) {
  EXPECT_THROW(closed_loop_poles(zoh_model(0.1)), std::invalid_argument);
}

TEST(SampleHoldSim, QuiescentWhenLocked) {
  const PllParameters p = make_typical_loop(0.15 * kW0, kW0);
  SampleHoldPllSim sim(p);
  sim.run_periods(50.0);
  EXPECT_NEAR(sim.theta(), 0.0, 1e-9);
  EXPECT_NEAR(sim.held_current(), 0.0, 1e-9);
  EXPECT_GE(sim.event_count(), 49u);
}

TEST(SampleHoldSim, TracksQuasiStaticReferenceExcursion) {
  // A very slow reference phase wobble: the type-2 loop must follow it
  // with negligible error (theta ~ theta_ref deep in band).
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  ReferenceModulation mod;
  mod.amplitude = 5e-3;
  mod.omega = 1e-4 * kW0;
  SampleHoldPllSim sim(p, mod);
  sim.run_periods(300.0);
  const double theta_ref_now = mod.value(sim.time());
  EXPECT_GT(std::abs(theta_ref_now), 1e-4);  // excursion is resolvable
  EXPECT_NEAR(sim.theta(), theta_ref_now, 1e-4);
}

TEST(SampleHoldSim, ProbeMatchesZohModel) {
  const PllParameters p = make_typical_loop(0.15 * kW0, kW0);
  const SamplingPllModel model = zoh_model(0.15);
  ProbeOptions opts;
  opts.settle_periods = 300.0;
  opts.measure_periods = 20;
  // The exact bin leaves only the S/H loop's own distance from its ZOH
  // model: measured 2.2e-9 and 1.1e-7.
  const struct {
    double f, tol;
  } cases[] = {{0.05, 7e-9}, {0.12, 3.5e-7}};
  for (const auto& c : cases) {
    const TransferMeasurement meas =
        measure_baseband_transfer_sample_hold(p, c.f * kW0, opts);
    const cplx predicted = model.baseband_transfer(j * (c.f * kW0));
    EXPECT_NEAR(std::abs(meas.value - predicted) / std::abs(predicted),
                0.0, c.tol)
        << "f = " << c.f;
  }
}

TEST(SampleHoldSim, ImpulseModelIsTheWrongPredictorForZohLoop) {
  const PllParameters p = make_typical_loop(0.2 * kW0, kW0);
  const SamplingPllModel zoh = zoh_model(0.2);
  const SamplingPllModel imp = impulse_model(0.2);
  ProbeOptions opts;
  opts.settle_periods = 350.0;
  opts.measure_periods = 20;
  const double wm = 0.15 * kW0;
  const TransferMeasurement meas =
      measure_baseband_transfer_sample_hold(p, wm, opts);
  const double err_zoh =
      std::abs(meas.value - zoh.baseband_transfer(j * wm));
  const double err_imp =
      std::abs(meas.value - imp.baseband_transfer(j * wm));
  EXPECT_LT(err_zoh, 0.5 * err_imp);
}

}  // namespace
}  // namespace htmpll
