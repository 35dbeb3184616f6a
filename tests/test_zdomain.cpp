#include <algorithm>
#include <cstdint>
#include <limits>
#include <numbers>

#include <gtest/gtest.h>

#include "htmpll/core/aliasing_sum.hpp"
#include "htmpll/lti/loop_filter.hpp"
#include "htmpll/lti/roots.hpp"
#include "htmpll/ztrans/jury.hpp"
#include "htmpll/ztrans/zdomain.hpp"
#include "obs_scope.hpp"

namespace htmpll {
namespace {

const cplx j{0.0, 1.0};
constexpr double kW0 = 2.0 * std::numbers::pi;  // T = 1

TEST(Zdomain, SimplePoleImpulseInvariance) {
  // A = 1/(s+a): G(z) = T z/(z - e^{-aT}); check at a few z.
  const double a = 0.7;
  const RationalFunction h(Polynomial::constant(1.0),
                           Polynomial::from_real({a, 1.0}));
  const ImpulseInvariantModel m(h, kW0);
  const double t = m.period();
  const double q = std::exp(-a * t);
  for (const cplx z : {cplx{2.0}, cplx{0.3, 0.9}}) {
    const cplx expected = t * z / (z - q);
    EXPECT_NEAR(std::abs(m.loop_gain(z) - expected) / std::abs(expected),
                0.0, 1e-12);
  }
}

TEST(Zdomain, LambdaEquivalenceIsThePoissonIdentity) {
  // The central cross-check: the impulse-invariant z-model evaluated on
  // z = e^{sT} must equal the paper's aliasing sum lambda(s) = sum_m
  // A(s + j m w0) -- tying eq. 37 to the Hein-Scott/Gardner baseline.
  const PllParameters p = make_typical_loop(0.3 * kW0, kW0);
  const RationalFunction a = p.open_loop_gain();
  const ImpulseInvariantModel zm(a, kW0);
  const AliasingSum sum(a, kW0);
  for (double f : {0.05, 0.15, 0.33, 0.47}) {
    const cplx s = j * (f * kW0);
    const cplx lhs = zm.lambda_equivalent(s);
    const cplx rhs = sum.exact(s);
    EXPECT_NEAR(std::abs(lhs - rhs) / std::abs(rhs), 0.0, 1e-8)
        << "f = " << f;
  }
}

TEST(Zdomain, LambdaEquivalenceWithRelativeDegreeOne) {
  // A = 1/(s+1): a(0+) = 1 requires the half-sample correction.
  const RationalFunction a(Polynomial::constant(1.0),
                           Polynomial::from_real({1.0, 1.0}));
  const ImpulseInvariantModel zm(a, kW0);
  const AliasingSum sum(a, kW0);
  const cplx s = j * (0.2 * kW0);
  EXPECT_NEAR(std::abs(zm.lambda_equivalent(s) - sum.exact(s)) /
                  std::abs(sum.exact(s)),
              0.0, 1e-8);
}

TEST(Zdomain, RepeatedPoleTransform) {
  // A = 1/s^2 (double pole): sampled ramp a(nT) = nT, G(z) =
  // T^2 z/(z-1)^2.
  const RationalFunction a(Polynomial::constant(1.0),
                           Polynomial::from_real({0.0, 0.0, 1.0}));
  const ImpulseInvariantModel m(a, kW0);
  const double t = m.period();
  const cplx z{1.5, 0.5};
  const cplx expected = t * t * z / ((z - 1.0) * (z - 1.0));
  EXPECT_NEAR(std::abs(m.loop_gain(z) - expected) / std::abs(expected),
              0.0, 1e-10);
}

TEST(Zdomain, StabilityMatchesRootsForTypicalLoop) {
  for (double ratio : {0.05, 0.15, 0.25}) {
    const PllParameters p = make_typical_loop(ratio * kW0, kW0);
    const ImpulseInvariantModel zm(p.open_loop_gain(), kW0);
    EXPECT_TRUE(zm.is_stable()) << "ratio " << ratio;
    EXPECT_TRUE(jury_stable(zm.characteristic())) << "ratio " << ratio;
  }
}

TEST(Zdomain, FastLoopGoesUnstable) {
  // Increase w_UG/w0 until the sampled loop loses stability; z-domain
  // poles and Jury must agree on where.
  bool unstable_seen = false;
  bool agree = true;
  for (double ratio = 0.2; ratio <= 0.8; ratio += 0.05) {
    const PllParameters p = make_typical_loop(ratio * kW0, kW0);
    const ImpulseInvariantModel zm(p.open_loop_gain(), kW0);
    const bool by_roots = zm.is_stable();
    const bool by_jury = jury_stable(zm.characteristic(), 1e-9);
    if (by_roots != by_jury) agree = false;
    if (!by_roots) unstable_seen = true;
  }
  EXPECT_TRUE(unstable_seen);
  EXPECT_TRUE(agree);
}

TEST(Zdomain, SolvesTheCharacteristicPolynomialOnce) {
  // The constructor runs the one root solve; the poles and every
  // stability verdict after it are reads of those roots.
  ScopedObs on(true);
  obs::Counter& sweeps = obs::counter("lti.aberth_sweeps");
  for (const double ratio : {0.005, 0.1, 0.27, 0.3}) {
    const RationalFunction a =
        make_typical_loop(ratio * kW0, kW0).open_loop_gain();
    const std::uint64_t s0 = sweeps.value();
    const ImpulseInvariantModel zm(a, kW0);
    const std::uint64_t s1 = sweeps.value();
    const CVector own = find_roots(zm.characteristic());
    const std::uint64_t s2 = sweeps.value();
    EXPECT_GT(s1 - s0, 0u) << "ratio " << ratio;
    EXPECT_EQ(s1 - s0, s2 - s1) << "ratio " << ratio;
    const CVector& poles = zm.closed_loop_poles();
    ASSERT_EQ(poles.size(), own.size());
    for (std::size_t i = 0; i < own.size(); ++i) {
      EXPECT_EQ(poles[i], own[i]) << "ratio " << ratio << " pole " << i;
    }
    const bool stable =
        std::all_of(own.begin(), own.end(),
                    [](const cplx& z) { return std::abs(z) < 1.0; });
    EXPECT_EQ(zm.is_stable(), stable) << "ratio " << ratio;
    EXPECT_EQ(sweeps.value(), s2) << "ratio " << ratio;
  }
}

/// A(s) = 1/((s - p w0)(s + 1)): a right-half-plane pole at p w0, whose
/// sampled factor is e^{p w0 T} = e^{2 pi p}.
RationalFunction fast_unstable_pole(double p) {
  return RationalFunction(Polynomial::constant(1.0),
                          Polynomial::from_real({-p * kW0, 1.0}) *
                              Polynomial::from_real({1.0, 1.0}));
}

TEST(Zdomain, RejectsPoleFactorsOutsideTheDoubleRange) {
  // e^{2 pi p} overflows from p ~ 113: an infinite G(z) would give the
  // poles {0, NaN}, which a verdict must not read as stable.
  for (const double p : {120.0, 200.0, 1000.0}) {
    EXPECT_THROW(ImpulseInvariantModel(fast_unstable_pole(p), kW0),
                 std::invalid_argument)
        << "p " << p;
  }
  // Still in range: a root near e^{100 pi} ~ 2.7e136, read unstable.
  const ImpulseInvariantModel zm(fast_unstable_pole(50.0), kW0);
  double largest = 0.0;
  for (const cplx& z : zm.closed_loop_poles()) {
    largest = std::max(largest, std::abs(z));
  }
  EXPECT_GT(largest, 1e136);
  EXPECT_TRUE(std::isfinite(largest));
  EXPECT_FALSE(zm.is_stable());
}

TEST(Zdomain, StabilityMarginMustBeFiniteAndNonNegative) {
  const ImpulseInvariantModel zm(
      make_typical_loop(0.1 * kW0, kW0).open_loop_gain(), kW0);
  EXPECT_TRUE(zm.is_stable(0.0));
  EXPECT_TRUE(zm.is_stable(0.01));
  EXPECT_FALSE(zm.is_stable(1.0));
  EXPECT_THROW(zm.is_stable(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
  EXPECT_THROW(zm.is_stable(-1.0), std::invalid_argument);
  EXPECT_THROW(zm.is_stable(std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

TEST(Zdomain, RequiresStrictlyProper) {
  const RationalFunction biproper(Polynomial::from_real({1.0, 1.0}),
                                  Polynomial::from_real({2.0, 1.0}));
  EXPECT_THROW(ImpulseInvariantModel(biproper, 1.0), std::invalid_argument);
}

TEST(Jury, KnownStableAndUnstablePolynomials) {
  // Roots 0.5, 0.8 -> stable.
  EXPECT_TRUE(jury_stable(
      Polynomial::from_roots({cplx{0.5}, cplx{0.8}})));
  // Root at 1.2 -> unstable.
  EXPECT_FALSE(jury_stable(
      Polynomial::from_roots({cplx{1.2}, cplx{0.1}})));
  // Boundary root at |z| = 1 -> not strictly stable.
  EXPECT_FALSE(jury_stable(
      Polynomial::from_roots({cplx{0.0, 1.0}, cplx{0.0, -1.0}}), 1e-9));
}

TEST(Jury, ComplexCoefficientPolynomial) {
  const cplx r1{0.3, 0.4};  // |r1| = 0.5
  const cplx r2{-0.2, 0.6};
  EXPECT_TRUE(jury_stable(Polynomial::from_roots({r1, r2})));
  EXPECT_FALSE(jury_stable(Polynomial::from_roots({r1, cplx{1.1, 0.3}})));
}

TEST(Jury, ReflectionMagnitudesReported) {
  const SchurCohnResult r =
      schur_cohn(Polynomial::from_roots({cplx{0.5}, cplx{0.8}}));
  EXPECT_TRUE(r.stable);
  EXPECT_EQ(r.reflection_magnitudes.size(), 2u);
  for (double m : r.reflection_magnitudes) EXPECT_LT(m, 1.0);
}

TEST(Jury, AgreesWithRootsOnRandomPolynomials) {
  // Property sweep: polynomials from random roots inside/outside circle.
  for (int trial = 0; trial < 40; ++trial) {
    const double r1 = 0.1 + 0.05 * trial;  // 0.1 .. 2.05
    const cplx root1{r1 * 0.7, r1 * 0.3};
    const cplx root2{-0.4, 0.2};
    const cplx root3{0.3, -0.5};
    const Polynomial p = Polynomial::from_roots({root1, root2, root3});
    const bool by_roots = std::abs(root1) < 1.0;
    EXPECT_EQ(jury_stable(p, 1e-9), by_roots) << "trial " << trial;
  }
}

}  // namespace
}  // namespace htmpll
