#include <cmath>
#include <cstring>
#include <limits>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "htmpll/linalg/expm.hpp"

namespace htmpll {
namespace {

TEST(Expm, DiagonalMatrix) {
  const RMatrix a{{1.0, 0.0}, {0.0, -2.0}};
  const RMatrix e = expm(a);
  EXPECT_NEAR(e(0, 0), std::exp(1.0), 1e-12);
  EXPECT_NEAR(e(1, 1), std::exp(-2.0), 1e-12);
  EXPECT_NEAR(e(0, 1), 0.0, 1e-13);
  EXPECT_NEAR(e(1, 0), 0.0, 1e-13);
}

TEST(Expm, NilpotentMatrixIsExactPolynomial) {
  // exp([[0,1],[0,0]]) = [[1,1],[0,1]]
  const RMatrix a{{0.0, 1.0}, {0.0, 0.0}};
  const RMatrix e = expm(a);
  EXPECT_NEAR(e(0, 0), 1.0, 1e-14);
  EXPECT_NEAR(e(0, 1), 1.0, 1e-14);
  EXPECT_NEAR(e(1, 0), 0.0, 1e-14);
  EXPECT_NEAR(e(1, 1), 1.0, 1e-14);
}

TEST(Expm, RotationMatrix) {
  // exp([[0,-w],[w,0]] t) = rotation by w t.
  const double w = 3.0;
  const RMatrix a{{0.0, -w}, {w, 0.0}};
  const RMatrix e = expm(a);
  EXPECT_NEAR(e(0, 0), std::cos(w), 1e-11);
  EXPECT_NEAR(e(0, 1), -std::sin(w), 1e-11);
  EXPECT_NEAR(e(1, 0), std::sin(w), 1e-11);
  EXPECT_NEAR(e(1, 1), std::cos(w), 1e-11);
}

TEST(Expm, LargeNormTriggersScalingAndStaysAccurate) {
  const RMatrix a{{-50.0, 30.0}, {0.0, -80.0}};
  const RMatrix e = expm(a);
  // Upper-triangular: e11 = exp(-50), e22 = exp(-80),
  // e12 = 30 (exp(-50) - exp(-80)) / 30 = exp(-50)-exp(-80).
  EXPECT_NEAR(e(0, 0) / std::exp(-50.0), 1.0, 1e-9);
  EXPECT_NEAR(e(1, 1) / std::exp(-80.0), 1.0, 1e-6);
  EXPECT_NEAR(e(0, 1) / (std::exp(-50.0) - std::exp(-80.0)), 1.0, 1e-9);
}

TEST(Expm, SemigroupProperty) {
  const RMatrix a{{0.1, 0.7}, {-0.3, 0.2}};
  const RMatrix e1 = expm(a);
  const RMatrix e2 = expm(a * 2.0);
  const RMatrix e1sq = e1 * e1;
  for (std::size_t i = 0; i < 2; ++i) {
    for (std::size_t j = 0; j < 2; ++j) {
      EXPECT_NEAR(e1sq(i, j), e2(i, j), 1e-12);
    }
  }
}

TEST(Propagator, ScalarDecayWithConstantInput) {
  // x' = -a x + u, exact x(h) = e^{-ah} x0 + (1 - e^{-ah}) u / a.
  const double a = 2.0, h = 0.3, x0 = 1.5, u = 4.0;
  const RMatrix am{{-a}};
  const RMatrix bm{{1.0}};
  const StepPropagator p = make_propagator(am, bm, h);
  const RVector x = p.advance({x0}, {u});
  const double expected = std::exp(-a * h) * x0 +
                          (1.0 - std::exp(-a * h)) * u / a;
  EXPECT_NEAR(x[0], expected, 1e-13);
}

TEST(Propagator, PureIntegratorWithConstantInput) {
  // x' = u: singular A must still work (phi functions, not A^{-1}).
  const RMatrix am{{0.0}};
  const RMatrix bm{{1.0}};
  const double h = 0.7;
  const StepPropagator p = make_propagator(am, bm, h);
  const RVector x = p.advance({2.0}, {3.0});
  EXPECT_NEAR(x[0], 2.0 + 3.0 * h, 1e-13);
}

TEST(Propagator, DoubleIntegratorChain) {
  // x1' = u, x2' = x1 (Jordan block at 0, like filter cap + VCO phase).
  const RMatrix am{{0.0, 0.0}, {1.0, 0.0}};
  const RMatrix bm{{1.0}, {0.0}};
  const double h = 2.0, u = 1.0;
  const StepPropagator p = make_propagator(am, bm, h);
  const RVector x = p.advance({0.0, 0.0}, {u});
  EXPECT_NEAR(x[0], u * h, 1e-12);
  EXPECT_NEAR(x[1], 0.5 * u * h * h, 1e-12);
}

TEST(Propagator, AutonomousSystemAllowed) {
  const RMatrix am{{-1.0}};
  const StepPropagator p = make_propagator(am, RMatrix(), 1.0);
  const RVector x = p.advance({1.0}, {});
  EXPECT_NEAR(x[0], std::exp(-1.0), 1e-12);
}

TEST(Propagator, RejectsNonPositiveStep) {
  EXPECT_THROW(make_propagator(RMatrix{{0.0}}, RMatrix{{1.0}}, 0.0),
               std::invalid_argument);
  EXPECT_THROW(make_propagator(RMatrix{{0.0}}, RMatrix{{1.0}}, -1.0),
               std::invalid_argument);
}

TEST(Expm, RejectsNonFiniteInput) {
  // NaN used to flow through norm_inf silently, skip the scaling stage
  // and return an all-NaN matrix; now it is an argument error.
  RMatrix nan2{{0.0, 1.0}, {std::nan(""), 0.0}};
  EXPECT_THROW(expm(nan2), std::invalid_argument);
  RMatrix inf2{{0.0, std::numeric_limits<double>::infinity()}, {0.0, 0.0}};
  EXPECT_THROW(expm(inf2), std::invalid_argument);
  RMatrix neg_inf1{{-std::numeric_limits<double>::infinity()}};
  EXPECT_THROW(expm(neg_inf1), std::invalid_argument);
}

TEST(Propagator, AdvanceIntoMatchesAdvanceBitwise) {
  const RMatrix am{{0.0, 1.0}, {-2.0, -0.7}};
  const RMatrix bm{{0.0}, {1.0}};
  const double h = 0.37;
  const StepPropagator p = make_propagator(am, bm, h);
  const RVector x0{0.25, -1.5};
  for (const double u : {0.8, 0.0}) {
    const RVector a = p.advance(x0, {u});
    RVector b;
    p.advance_into(x0, u, b);
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
      // Bit-level equality, not EXPECT_DOUBLE_EQ: the transient engine's
      // seed-identity contract depends on the exact same rounding.
      EXPECT_EQ(std::memcmp(&a[i], &b[i], sizeof(double)), 0) << i;
    }
  }
}

TEST(Propagator, AdvanceIntoReusesScratchAcrossCalls) {
  const RMatrix am{{-1.0}};
  const RMatrix bm{{1.0}};
  const StepPropagator p = make_propagator(am, bm, 1.0);
  RVector scratch(7, 123.0);  // wrong size on purpose
  p.advance_into({2.0}, 0.5, scratch);
  ASSERT_EQ(scratch.size(), 1u);
  const RVector ref = p.advance({2.0}, {0.5});
  EXPECT_EQ(scratch[0], ref[0]);
}

TEST(Propagator, AdvanceIntoAutonomous) {
  const RMatrix am{{-1.0}};
  const StepPropagator p = make_propagator(am, RMatrix(), 1.0);
  RVector out;
  p.advance_into({1.0}, 0.0, out);
  EXPECT_NEAR(out[0], std::exp(-1.0), 1e-12);
}

}  // namespace
}  // namespace htmpll
