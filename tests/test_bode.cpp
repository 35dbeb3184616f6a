#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "htmpll/lti/bode.hpp"
#include "htmpll/lti/rational.hpp"

namespace htmpll {
namespace {

const cplx j{0.0, 1.0};

TEST(Bode, MagnitudeDbAndPhase) {
  EXPECT_NEAR(magnitude_db(cplx{10.0}), 20.0, 1e-12);
  EXPECT_NEAR(magnitude_db(cplx{0.1}), -20.0, 1e-12);
  EXPECT_NEAR(phase_deg(j), 90.0, 1e-12);
  EXPECT_NEAR(phase_deg(cplx{-1.0, 0.0}), 180.0, 1e-12);
}

TEST(Bode, UnwrapRemovesJumps) {
  const double pi = std::numbers::pi;
  // Phase walking downward through -pi should not jump by 2 pi.
  const std::vector<double> raw{-3.0, -3.1, 3.1, 3.0, 2.9};
  const std::vector<double> un = unwrap_phase(raw);
  for (std::size_t i = 1; i < un.size(); ++i) {
    EXPECT_LT(std::abs(un[i] - un[i - 1]), pi);
  }
  EXPECT_NEAR(un[2], 3.1 - 2.0 * pi, 1e-12);
}

TEST(Bode, IntegratorCrossoverAndMargin) {
  // H = 10/s: |H| = 1 at w = 10, phase -90 -> PM = 90 deg.
  const RationalFunction h = RationalFunction::integrator(10.0);
  const FrequencyResponse f = [&h](double w) { return h(w * j); };
  const auto c = find_gain_crossover(f, 0.01, 1e4);
  ASSERT_TRUE(c.has_value());
  EXPECT_NEAR(c->frequency, 10.0, 1e-6);
  EXPECT_NEAR(c->phase_margin_deg, 90.0, 1e-6);
}

TEST(Bode, DoubleIntegratorWithZeroMargin) {
  // H = (1 + s/1) * 100 / s^2: crossover near 100 (zero at 1 adds +90).
  const RationalFunction h =
      RationalFunction(Polynomial::from_real({1.0, 1.0}),
                       Polynomial::from_real({0.0, 0.0, 1.0})) *
      RationalFunction::constant(100.0);
  const FrequencyResponse f = [&h](double w) { return h(w * j); };
  const auto c = find_gain_crossover(f, 1e-3, 1e5);
  ASSERT_TRUE(c.has_value());
  // At crossover w >> 1 the phase is ~ -180 + 90 = -90 -> PM ~ 90.
  EXPECT_GT(c->phase_margin_deg, 85.0);
  EXPECT_LT(c->phase_margin_deg, 90.5);
}

TEST(Bode, NoCrossoverReturnsNullopt) {
  const FrequencyResponse flat = [](double) { return cplx{0.5}; };
  EXPECT_FALSE(find_gain_crossover(flat, 0.1, 100.0).has_value());
}

TEST(Bode, MarginSearchesResolveToTheBisectionTolerance) {
  // The crossover search bisects to 1e-10 relative in w.
  // H = 2/(s(s+1)) crosses |H| = 1 where w^2 = (sqrt(17) - 1)/2, with
  // PM = 90 - atan(w) deg.
  const RationalFunction h1(Polynomial::constant(2.0),
                            Polynomial::from_real({0.0, 1.0, 1.0}));
  const FrequencyResponse f1 = [&h1](double w) { return h1(w * j); };
  const auto c = find_gain_crossover(f1, 0.01, 100.0);
  ASSERT_TRUE(c.has_value());
  const double wc = std::sqrt((std::sqrt(17.0) - 1.0) / 2.0);
  EXPECT_NEAR(c->frequency / wc, 1.0, 1e-9);
  EXPECT_NEAR(c->phase_margin_deg,
              90.0 - std::atan(wc) * 180.0 / std::numbers::pi, 1e-7);
}

TEST(Bode, SweepShapesLowpass) {
  const RationalFunction h(Polynomial::constant(1.0),
                           Polynomial::from_real({1.0, 1.0}));
  const FrequencyResponse f = [&h](double w) { return h(w * j); };
  const auto pts = bode_sweep(f, 0.01, 100.0, 64);
  ASSERT_EQ(pts.size(), 64u);
  EXPECT_NEAR(pts.front().mag_db, 0.0, 0.01);
  EXPECT_LT(pts.back().mag_db, -39.0);
  EXPECT_NEAR(pts.front().phase_deg, 0.0, 1.0);
  EXPECT_NEAR(pts.back().phase_deg, -90.0, 1.0);
}

TEST(Bode, RejectsBadRange) {
  const FrequencyResponse f = [](double) { return cplx{1.0}; };
  EXPECT_THROW(find_gain_crossover(f, -1.0, 10.0), std::invalid_argument);
  EXPECT_THROW(find_gain_crossover(f, 10.0, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace htmpll
