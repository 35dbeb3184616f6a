#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <vector>

#include <gtest/gtest.h>

#include "htmpll/core/pole_search.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/ztrans/zdomain.hpp"

#include "obs_scope.hpp"

namespace htmpll {
namespace {

constexpr double kW0 = 2.0 * std::numbers::pi;

SamplingPllModel make_model(double ratio) {
  return SamplingPllModel(make_typical_loop(ratio * kW0, kW0));
}

/// Seeds a few percent off each polished pole.
std::vector<cplx> perturbed_seeds(const std::vector<ClosedLoopPole>& poles) {
  std::vector<cplx> seeds;
  for (const ClosedLoopPole& p : poles) {
    seeds.push_back(p.s * cplx{1.01, -0.02});
  }
  return seeds;
}

TEST(PoleSearch, MaxPoleResidualGaugeKeepsWorstConvergedResidual) {
  // While obs records, core.max_pole_residual holds the worst |1 +
  // lambda| of a converged lane; lanes still moving when the iteration
  // cap runs out do not raise it.
  ScopedObs on(true);
  const SamplingPllModel m = make_model(0.2);
  obs::reset_counters();
  const std::vector<ClosedLoopPole> poles = closed_loop_poles(m);
  ASSERT_FALSE(poles.empty());
  double worst = 0.0;
  for (const ClosedLoopPole& p : poles) {
    ASSERT_TRUE(p.converged);
    worst = std::max(worst, p.residual);
  }
  EXPECT_GT(worst, 0.0);
  EXPECT_LT(worst, 1e-9);
  EXPECT_EQ(obs::snapshot().gauge_value("core.max_pole_residual"), worst);

  obs::reset_counters();
  PoleSearchOptions one_step;
  one_step.max_iterations = 1;
  const std::vector<ClosedLoopPole> moving =
      refine_closed_loop_poles(m, perturbed_seeds(poles), one_step);
  for (const ClosedLoopPole& p : moving) {
    ASSERT_FALSE(p.converged);
    EXPECT_GT(p.residual, 0.0);
  }
  EXPECT_EQ(obs::snapshot().gauge_value("core.max_pole_residual"), 0.0);
}

TEST(PoleSearch, ResidualsVanishOnOnePlusLambda) {
  const SamplingPllModel m = make_model(0.15);
  const auto poles = closed_loop_poles(m);
  ASSERT_GE(poles.size(), 2u);
  for (const ClosedLoopPole& p : poles) {
    EXPECT_LT(p.residual, 1e-9) << "pole at " << p.s.real();
  }
}

TEST(PoleSearch, PolesLieInFundamentalStrip) {
  const auto poles = closed_loop_poles(make_model(0.2));
  for (const ClosedLoopPole& p : poles) {
    EXPECT_LE(p.s.imag(), 0.5 * kW0 + 1e-9);
    EXPECT_GT(p.s.imag(), -0.5 * kW0 - 1e-9);
  }
}

TEST(PoleSearch, StableLoopHasAllLeftHalfPlanePoles) {
  for (double ratio : {0.05, 0.15, 0.25}) {
    for (const ClosedLoopPole& p : closed_loop_poles(make_model(ratio))) {
      EXPECT_LT(p.s.real(), 0.0) << "ratio " << ratio;
      EXPECT_GT(p.damping, 0.0);
    }
  }
}

TEST(PoleSearch, UnstableLoopHasRightHalfPlanePole) {
  const auto poles = closed_loop_poles(make_model(0.32));
  bool rhp = false;
  for (const ClosedLoopPole& p : poles) rhp = rhp || p.s.real() > 0.0;
  EXPECT_TRUE(rhp);
}

TEST(PoleSearch, AgreesWithZDomainPolesMappedBack) {
  const SamplingPllModel m = make_model(0.2);
  const ImpulseInvariantModel zm(m.open_loop_gain(), kW0);
  const auto s_poles = closed_loop_poles(m);
  const double t = 2.0 * std::numbers::pi / kW0;
  // Every refined s-pole must map onto some z-characteristic root.
  for (const ClosedLoopPole& p : s_poles) {
    const cplx z = std::exp(p.s * t);
    double best = 1e300;
    for (const cplx& zr : zm.closed_loop_poles()) {
      best = std::min(best, std::abs(z - zr));
    }
    EXPECT_LT(best, 1e-7) << "pole " << p.s.real() << "+" << p.s.imag()
                          << "j";
  }
}

TEST(PoleSearch, DampingCollapsesTowardInstability) {
  // The dominant (lowest-|s|) complex pole's damping must fall as the
  // loop speeds up -- the pole-domain view of Fig. 7's PM collapse.
  double prev = 1.0;
  for (double ratio : {0.05, 0.1, 0.2, 0.25}) {
    const auto poles = closed_loop_poles(make_model(ratio));
    ASSERT_FALSE(poles.empty());
    // Find the least-damped pole.
    double zeta = 1.0;
    for (const ClosedLoopPole& p : poles) zeta = std::min(zeta, p.damping);
    EXPECT_LT(zeta, prev + 1e-12) << "ratio " << ratio;
    prev = zeta;
  }
  EXPECT_LT(prev, 0.2);  // near the boundary the loop is barely damped
}

TEST(PoleSearch, PolesSolveTheScalarCharacteristicEquation) {
  // Every polished pole converged and zeroes 1 + lambda by the
  // point-wise exact closed form (AliasingSum::exact, not the plan the
  // Newton steps ran on), and each nonzero z-domain root yields one pole.
  for (double ratio : {0.08, 0.15, 0.25}) {
    SCOPED_TRACE(testing::Message() << "ratio " << ratio);
    const SamplingPllModel m = make_model(ratio);
    const ImpulseInvariantModel zm(m.open_loop_gain(), kW0);
    std::size_t roots = 0;
    for (const cplx& z : zm.closed_loop_poles()) {
      if (std::abs(z) >= 1e-12) ++roots;
    }
    const auto poles = closed_loop_poles(m);
    EXPECT_EQ(poles.size(), roots);
    for (const ClosedLoopPole& p : poles) {
      EXPECT_TRUE(p.converged);
      EXPECT_LT(std::abs(1.0 + m.lambda(p.s, LambdaMethod::kExact, 0)),
                1e-9)
          << "pole " << p.s;
    }
  }
}

TEST(PoleSearch, RefineFromPerturbedSeedConverges) {
  const SamplingPllModel m = make_model(0.15);
  const auto poles = closed_loop_poles(m);
  ASSERT_FALSE(poles.empty());
  const cplx truth = poles.back().s;
  const auto refined =
      refine_closed_loop_poles(m, {truth * cplx{1.02, 0.01}});
  ASSERT_EQ(refined.size(), 1u);
  EXPECT_TRUE(refined[0].converged);
  EXPECT_NEAR(std::abs(refined[0].s - truth) / std::abs(truth), 0.0, 1e-8);
}

TEST(PoleSearch, RefineFromPerturbedSeedsConverges) {
  const SamplingPllModel m = make_model(0.18);
  const auto poles = closed_loop_poles(m);
  ASSERT_GE(poles.size(), 2u);
  const std::vector<cplx> seeds = perturbed_seeds(poles);
  const auto refined = refine_closed_loop_poles(m, seeds);
  ASSERT_EQ(refined.size(), seeds.size());
  for (std::size_t i = 0; i < seeds.size(); ++i) {
    EXPECT_TRUE(refined[i].converged) << "seed " << i;
    EXPECT_LT(std::abs(refined[i].s - poles[i].s) / std::abs(poles[i].s),
              1e-9)
        << "seed " << i;
  }
}

TEST(PoleSearch, RejectsBadOptions) {
  const SamplingPllModel m = make_model(0.15);
  const std::vector<cplx> seeds = {cplx{-0.5, 0.5}};
  for (int iterations : {0, -3}) {
    PoleSearchOptions opts;
    opts.max_iterations = iterations;
    EXPECT_THROW(refine_closed_loop_poles(m, seeds, opts),
                 std::invalid_argument)
        << "max_iterations " << iterations;
    EXPECT_THROW(closed_loop_poles(m, opts), std::invalid_argument);
  }
  for (double tol : {std::numeric_limits<double>::quiet_NaN(),
                     std::numeric_limits<double>::infinity(), 0.0, -1e-12}) {
    PoleSearchOptions opts;
    opts.tolerance = tol;
    EXPECT_THROW(refine_closed_loop_poles(m, seeds, opts),
                 std::invalid_argument)
        << "tolerance " << tol;
    EXPECT_THROW(closed_loop_poles(m, opts), std::invalid_argument);
  }
}

TEST(PoleSearch, CappedLaneIsNotConverged) {
  // One Newton step from a perturbed seed leaves every lane still
  // moving: each hit the cap and must say so.
  const SamplingPllModel m = make_model(0.18);
  const auto poles = closed_loop_poles(m);
  ASSERT_FALSE(poles.empty());
  PoleSearchOptions one_step;
  one_step.max_iterations = 1;
  for (const ClosedLoopPole& p :
       refine_closed_loop_poles(m, perturbed_seeds(poles), one_step)) {
    EXPECT_FALSE(p.converged) << "pole " << p.s;
    EXPECT_EQ(p.iterations, 1);
  }
  // An unreachable tolerance: a lane that ran every iteration reports
  // unconverged, one whose step vanished first reports converged.
  PoleSearchOptions strict;
  strict.tolerance = 1e-30;
  for (const ClosedLoopPole& p : closed_loop_poles(m, strict)) {
    EXPECT_EQ(p.converged, p.iterations < strict.max_iterations)
        << "pole " << p.s << " iterations " << p.iterations;
  }
}

TEST(PoleSearch, FarSeedsFoldExactlyIntoTheStrip) {
  // Iterates far up the jw axis fold into (-w0/2, w0/2] in one exact
  // step: no stall once ulp(Im s) exceeds 2 w0 (about 5.7e16 here), no
  // rounding drift per period below that.
  const SamplingPllModel m = make_model(0.1);
  PoleSearchOptions three;
  three.max_iterations = 3;
  for (const double im : {1e17, -1e17, 1e9}) {
    const auto p = refine_closed_loop_poles(m, {cplx{-0.1, im}}, three);
    ASSERT_EQ(p.size(), 1u);
    EXPECT_TRUE(std::isfinite(p[0].s.real())) << "Im " << im;
    EXPECT_GT(p[0].s.imag(), -0.5 * kW0) << "Im " << im;
    EXPECT_LE(p[0].s.imag(), 0.5 * kW0) << "Im " << im;
  }
  // A pole seeded a hundred thousand or a million periods up its ladder
  // folds back onto the strip's pole to within the seed's own rounding,
  // and retires as converged: there no Newton step can be shorter than
  // the spacing of the doubles, far above tolerance * w0.
  const auto poles = closed_loop_poles(m);
  ASSERT_FALSE(poles.empty());
  const PoleSearchOptions defaults;
  for (const ClosedLoopPole& pole : poles) {
    for (const double periods : {1e5, 1e6}) {
      const cplx seed = pole.s + cplx{0.0, periods * kW0};
      const double ulp =
          std::nextafter(seed.imag(), 2.0 * seed.imag()) - seed.imag();
      const auto far = refine_closed_loop_poles(m, {seed});
      ASSERT_EQ(far.size(), 1u);
      EXPECT_LE(std::abs(far[0].s - pole.s), 4.0 * ulp)
          << "pole " << pole.s << " folded " << far[0].s;
      EXPECT_TRUE(far[0].converged) << "pole " << pole.s << " " << periods;
      EXPECT_LT(far[0].iterations, defaults.max_iterations)
          << "pole " << pole.s << " " << periods;
    }
  }
}

TEST(PoleSearch, RequiresTimeInvariantVco) {
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  const SamplingPllModel m(
      p, HarmonicCoefficients::real_waveform(1.0, {cplx{0.2}}));
  EXPECT_THROW(closed_loop_poles(m), std::invalid_argument);
}

}  // namespace
}  // namespace htmpll
