// Gardner's classic second-order charge-pump loop (no ripple capacitor):
// exercises the relative-degree-1 aliasing machinery (conditionally
// convergent S1 / principal value), the half-sample term of the
// impulse-invariant transform (a(0+) != 0), and the biproper-filter
// (D != 0) path of the transient simulator.
#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "htmpll/core/stability.hpp"
#include "htmpll/timedomain/probe.hpp"
#include "htmpll/ztrans/zdomain.hpp"

namespace htmpll {
namespace {

const cplx j{0.0, 1.0};
constexpr double kW0 = 2.0 * std::numbers::pi;

TEST(SecondOrder, OpenLoopShapeAndNormalization) {
  const PllParameters p = make_second_order_loop(0.1 * kW0, kW0);
  const RationalFunction a = p.open_loop_gain();
  EXPECT_EQ(a.den().degree(), 2u);
  EXPECT_EQ(a.num().degree(), 1u);
  EXPECT_EQ(a.relative_degree(), 1);
  EXPECT_NEAR(std::abs(a(j * 0.1 * kW0)), 1.0, 1e-9);
  // Classical PM = atan(gamma) - 0 relative to -180.
  EXPECT_NEAR(std::arg(a(j * 0.1 * kW0)) * 180.0 / std::numbers::pi,
              -180.0 + std::atan(4.0) * 180.0 / std::numbers::pi, 1e-6);
}

TEST(SecondOrder, FilterIsBiproper) {
  const PllParameters p = make_second_order_loop(0.1 * kW0, kW0);
  const RationalFunction z = p.filter.impedance();
  EXPECT_EQ(z.relative_degree(), 0);
  EXPECT_TRUE(std::isinf(p.filter.pole_freq()));
  // High-frequency asymptote is the series resistance.
  EXPECT_NEAR(std::abs(z(j * 1e9)), p.filter.r, 1e-6 * p.filter.r);
}

TEST(SecondOrder, LambdaMethodsAgreeAtRelativeDegreeOne) {
  const SamplingPllModel m(make_second_order_loop(0.1 * kW0, kW0));
  for (double f : {0.07, 0.23, 0.41}) {
    const cplx s = j * (f * kW0);
    const cplx exact = m.lambda(s, LambdaMethod::kExact, 0);
    const cplx adaptive = m.lambda(s, LambdaMethod::kAdaptive, 0);
    const cplx truncated = m.lambda(s, LambdaMethod::kTruncated, 4000);
    EXPECT_NEAR(std::abs(adaptive - exact) / std::abs(exact), 0.0, 1e-7)
        << "f = " << f;
    // Symmetric truncation of the 1/s tail converges ~ 1/K^2 after
    // pairing; keep a generous bound.
    EXPECT_NEAR(std::abs(truncated - exact) / std::abs(exact), 0.0, 1e-3)
        << "f = " << f;
  }
}

TEST(SecondOrder, PoissonIdentityWithHalfSampleTerm) {
  // a(0+) = lim s A(s) != 0 here, so the -T a0/2 correction matters;
  // dropping it would leave an O(T a0) = O(0.1) discrepancy.
  const PllParameters p = make_second_order_loop(0.1 * kW0, kW0);
  const ImpulseInvariantModel zm(p.open_loop_gain(), kW0);
  const AliasingSum sum(p.open_loop_gain(), kW0);
  for (double f : {0.08, 0.19, 0.37}) {
    const cplx s = j * (f * kW0);
    const cplx lhs = zm.lambda_equivalent(s);
    const cplx rhs = sum.exact(s);
    EXPECT_NEAR(std::abs(lhs - rhs) / std::abs(rhs), 0.0, 1e-9)
        << "f = " << f;
  }
}

TEST(SecondOrder, MarginDegradationMirrorsThirdOrderLoop) {
  double prev = 180.0;
  for (double ratio : {0.05, 0.1, 0.2, 0.3}) {
    const SamplingPllModel m(make_second_order_loop(ratio * kW0, kW0));
    const EffectiveMargins em = effective_margins(m);
    ASSERT_TRUE(em.eff_found) << "ratio " << ratio;
    EXPECT_LT(em.eff_phase_margin_deg, prev);
    EXPECT_LT(em.eff_phase_margin_deg, em.lti_phase_margin_deg);
    prev = em.eff_phase_margin_deg;
  }
}

TEST(SecondOrder, BoundaryIsHigherThanThirdOrder) {
  // Without the parasitic pole's extra lag the sampled loop survives to
  // larger w_UG/w0 than the gamma = 4 third-order loop (0.276).
  auto boundary = [](auto make) {
    return bisect_stability_boundary(
               [make](double r) {
                 const SamplingPllModel m(make(r * kW0, kW0, 4.0));
                 return half_rate_lambda(m) > -1.0;
               },
               0.1, 0.8, 40)
        .midpoint();
  };
  const double b2 = boundary(make_second_order_loop);
  const double b3 = boundary(make_typical_loop);
  EXPECT_NEAR(b3, 0.276, 0.002);
  EXPECT_GT(b2, b3 + 0.02);
}

TEST(SecondOrder, HalfWeightZModelMatchesLambdaBoundary) {
  // With the physically-consistent half-weight convention, the z-domain
  // poles and the lambda(j w0/2) criterion must place the stability
  // boundary at the same ratio -- which the transient simulator brackets
  // in (0.64, 0.65) for gamma = 4.
  auto boundary = [](auto stable) {
    return bisect_stability_boundary(stable, 0.3, 0.9, 40).midpoint();
  };
  const double b_lambda = boundary([](double r) {
    const SamplingPllModel m(make_second_order_loop(r * kW0, kW0));
    return half_rate_lambda(m) > -1.0;
  });
  const double b_z = boundary([](double r) {
    const ImpulseInvariantModel zm(
        make_second_order_loop(r * kW0, kW0).open_loop_gain(), kW0);
    return zm.is_stable();
  });
  EXPECT_NEAR(b_lambda, b_z, 1e-6);
  EXPECT_GT(b_lambda, 0.63);
  EXPECT_LT(b_lambda, 0.66);
}

TEST(SecondOrder, RawAndEffectiveZGainsDifferByHalfSample) {
  const PllParameters p = make_second_order_loop(0.2 * kW0, kW0);
  const ImpulseInvariantModel zm(p.open_loop_gain(), kW0);
  const cplx z{0.4, 0.7};
  const cplx diff = zm.loop_gain(z) - zm.effective_loop_gain_z()(z);
  // T * a(0+)/2 with a(0+) = lim s A(s) = leading num coeff of A.
  const cplx a0 = p.open_loop_gain().num().leading();
  EXPECT_NEAR(std::abs(diff - 0.5 * zm.period() * a0), 0.0,
              1e-12 * std::abs(diff));
}

TEST(SecondOrder, TransientSimulatorHandlesBiproperFilter) {
  // The resistor feedthrough (D != 0) makes the control voltage jump
  // with the pump current; the exact propagator must still reproduce
  // the HTM prediction.
  const PllParameters p = make_second_order_loop(0.1 * kW0, kW0);
  const SamplingPllModel model(p);
  ProbeOptions opts;
  opts.settle_periods = 300.0;
  opts.measure_periods = 20;
  const double wm = 0.08 * kW0;
  const TransferMeasurement meas =
      measure_baseband_transfer(p, wm, opts);
  const cplx predicted = model.baseband_transfer(j * wm);
  EXPECT_NEAR(std::abs(meas.value - predicted) / std::abs(predicted), 0.0,
              0.02);
}

TEST(SecondOrder, QuiescentLockWithResistiveFeedthrough) {
  const PllParameters p = make_second_order_loop(0.15 * kW0, kW0);
  PllTransientSim sim(p);
  sim.run_periods(50.0);
  EXPECT_NEAR(sim.theta(), 0.0, 1e-9);
  EXPECT_LT(sim.max_recent_pulse_width(), 1e-9);
}

}  // namespace
}  // namespace htmpll
