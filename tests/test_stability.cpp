#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include <gtest/gtest.h>

#include "htmpll/core/stability.hpp"
#include "htmpll/design/design_sweep.hpp"
#include "htmpll/lti/bode.hpp"
#include "htmpll/lti/delay.hpp"
#include "htmpll/obs/metrics.hpp"

namespace htmpll {
namespace {

constexpr double kW0 = 2.0 * std::numbers::pi;

SamplingPllModel make_model(double ratio) {
  return SamplingPllModel(make_typical_loop(ratio * kW0, kW0));
}

/// The oracle: find_gain_crossover on A and on the point-wise lambda,
/// over effective_margins' two windows.
EffectiveMargins scalar_margins(const SamplingPllModel& model) {
  EffectiveMargins out;
  const double w0 = model.w0();
  const RationalFunction& a = model.open_loop_gain();
  const FrequencyResponse lti = [&a](double w) { return a(cplx{0.0, w}); };
  if (const auto c = find_gain_crossover(lti, w0 * 1e-5, w0 * 1e3)) {
    out.lti_found = true;
    out.lti_crossover = c->frequency;
    out.lti_phase_margin_deg = c->phase_margin_deg;
  }
  const FrequencyResponse eff = [&model](double w) {
    return model.lambda(cplx{0.0, w});
  };
  if (const auto c = find_gain_crossover(eff, w0 * 1e-5, 0.5 * w0)) {
    out.eff_found = true;
    out.eff_crossover = c->frequency;
    out.eff_phase_margin_deg = c->phase_margin_deg;
  }
  return out;
}

/// effective_margins of `model` against the oracle: the same found
/// flags, and crossovers and phase margins within 1e-9 relative
/// wherever both searches found one.  A margin is taken relative to
/// max(|PM|, 10 deg): near 0 deg (the ZOH gamma = 2 designs past
/// w_UG/w0 = 0.2) the oracle's own 1e-10 bisection bracket leaves
/// ~1e-9 deg, so a bare relative error would measure the oracle.
/// Returns effective_margins.
EffectiveMargins expect_matches_oracle(const SamplingPllModel& model) {
  const EffectiveMargins b = effective_margins(model);
  const EffectiveMargins s = scalar_margins(model);
  const auto rel = [](double x, double ref) {
    return std::abs(x - ref) / std::abs(ref);
  };
  const auto margin_rel = [](double x, double ref) {
    return std::abs(x - ref) / std::max(std::abs(ref), 10.0);
  };
  EXPECT_EQ(b.lti_found, s.lti_found);
  EXPECT_EQ(b.eff_found, s.eff_found);
  if (b.lti_found && s.lti_found) {
    EXPECT_LT(rel(b.lti_crossover, s.lti_crossover), 1e-9);
    EXPECT_LT(margin_rel(b.lti_phase_margin_deg, s.lti_phase_margin_deg),
              1e-9);
  }
  if (b.eff_found && s.eff_found) {
    EXPECT_LT(rel(b.eff_crossover, s.eff_crossover), 1e-9);
    EXPECT_LT(margin_rel(b.eff_phase_margin_deg, s.eff_phase_margin_deg),
              1e-9);
  }
  return b;
}

SamplingPllModel zoh_model(const PllParameters& loop) {
  SamplingPllOptions opts;
  opts.pfd_shape = PfdShape::kZeroOrderHold;
  return SamplingPllModel(loop, HarmonicCoefficients(cplx{1.0}), opts);
}

TEST(Stability, BatchedCrossoverMatchesScalarSearch) {
  // The bracketed solve against find_gain_crossover on A and on the
  // point-wise lambda, first over a 24 x 4 design map (w_UG/w0 in
  // [0.005, 0.27], gamma in [2, 6]) with both PFD shapes.
  DesignSpec spec;
  spec.w0 = kW0;
  spec.target_w_ug = 0.1 * kW0;
  spec.target_pm_deg = 60.0;
  std::vector<double> ratios;
  for (int i = 0; i < 24; ++i) ratios.push_back(0.005 + 0.265 * i / 23.0);
  DesignSweepOptions no_poles;
  no_poles.include_poles = false;
  const DesignSpaceMap map =
      design_space_map(spec, ratios, {2.0, 10.0 / 3.0, 14.0 / 3.0, 6.0},
                       no_poles);
  int eff_found = 0;
  for (const DesignPoint& pt : map.points) {
    SCOPED_TRACE(testing::Message()
                 << "ratio " << pt.ratio << " gamma " << pt.gamma);
    const SamplingPllModel impulse(pt.design.params);
    const EffectiveMargins b = expect_matches_oracle(impulse);
    // The map's own margins are the same call on the same loop.
    EXPECT_EQ(pt.design.margins.eff_crossover, b.eff_crossover);
    EXPECT_EQ(pt.design.margins.eff_phase_margin_deg,
              b.eff_phase_margin_deg);
    eff_found += b.eff_found;
    SCOPED_TRACE("zero-order hold");
    eff_found += expect_matches_oracle(zoh_model(pt.design.params)).eff_found;
  }
  // Every design of the grid has an effective crossover.
  EXPECT_EQ(eff_found, 192);

  // The windows scale with w0, so the solve holds at any reference rate.
  for (const double w0 : {1e6 * kW0, 1e7 * kW0}) {
    SCOPED_TRACE(testing::Message() << "w0 " << w0);
    const SamplingPllModel model(make_typical_loop(0.1 * w0, w0));
    EXPECT_TRUE(expect_matches_oracle(model).eff_found);
  }

  // Loops whose lambda the typical impulse loop does not cover: extra
  // Pade delay, an LPTV ISF and the second-order loop.  Every one of
  // them has an effective crossover; unstable loops are
  // BatchedCrossoverHandlesUnstableLoop's.
  const HarmonicCoefficients dc_isf(cplx{1.0});
  const PllParameters p = make_typical_loop(0.15 * kW0, kW0);
  for (const double tau : {0.02, 0.05, 0.1}) {
    for (const int order : {3, 5}) {
      SCOPED_TRACE(testing::Message()
                   << "delay " << tau << " T, Pade order " << order);
      const SamplingPllModel model(p, dc_isf, {},
                                   pade_delay(tau * p.period(), order));
      EXPECT_TRUE(expect_matches_oracle(model).eff_found);
    }
  }
  for (const double ratio : {0.05, 0.2}) {
    for (const double c1 : {0.1, 0.2, 0.3}) {
      SCOPED_TRACE(testing::Message()
                   << "ratio " << ratio << " ISF ripple " << c1);
      const SamplingPllModel model(
          make_typical_loop(ratio * kW0, kW0),
          HarmonicCoefficients::real_waveform(1.0, {cplx{c1}}));
      EXPECT_TRUE(expect_matches_oracle(model).eff_found);
    }
  }
  for (const double ratio : {0.02, 0.1, 0.2}) {
    SCOPED_TRACE(testing::Message() << "second-order loop, ratio " << ratio);
    const SamplingPllModel model(make_second_order_loop(ratio * kW0, kW0));
    EXPECT_TRUE(expect_matches_oracle(model).eff_found);
  }
}

TEST(Stability, MarginSearchSpendsFewPlanPoints) {
  // Work bound: one effective_margins call evaluates lambda on the plan
  // at no more than the 39 bracket-grid points of [1e-5, 0.5] w0 plus
  // the solve's steps (4 to 10), unstable loops included.  A dense scan
  // (find_gain_crossover's 600-point grid) fails this at once.
  constexpr std::uint64_t kMaxPlanPoints = 39 + 16;
  obs::enable();
  for (const double ratio : {0.005, 0.1, 0.25, 0.4}) {
    for (const bool zoh : {false, true}) {
      SCOPED_TRACE(testing::Message() << "ratio " << ratio << " zoh " << zoh);
      const PllParameters loop = make_typical_loop(ratio * kW0, kW0);
      const SamplingPllModel model =
          zoh ? zoh_model(loop) : SamplingPllModel(loop);
      const auto points = [] {
        return obs::snapshot().counter_value("core.plan_grid_points");
      };
      const std::uint64_t before = points();
      (void)effective_margins(model);
      const std::uint64_t spent = points() - before;
      EXPECT_GT(spent, 0u);
      EXPECT_LE(spent, kMaxPlanPoints);
    }
  }
  obs::disable();
}

TEST(Stability, BatchedCrossoverHandlesUnstableLoop) {
  // Beyond the stability boundary (0.276 at gamma = 4) |lambda| never
  // falls through 1 below w0/2: the solve must report "not found"
  // exactly like the scalar search, not fabricate a crossover.  The ZOH
  // loops keep a crossover up to 0.4 (margins falling from 19 to 5 deg)
  // and lose it by 0.45; there the oracle decides.
  for (const double ratio : {0.28, 0.32, 0.36, 0.4, 0.45}) {
    SCOPED_TRACE(testing::Message() << "ratio " << ratio);
    const PllParameters loop = make_typical_loop(ratio * kW0, kW0);
    const EffectiveMargins b = expect_matches_oracle(SamplingPllModel(loop));
    EXPECT_TRUE(b.lti_found);
    EXPECT_FALSE(b.eff_found);
    SCOPED_TRACE("zero-order hold");
    expect_matches_oracle(zoh_model(loop));
  }
}

TEST(Stability, LtiMarginsMatchTypicalLoopDesign) {
  const SamplingPllModel m = make_model(0.1);
  const EffectiveMargins em = effective_margins(m);
  ASSERT_TRUE(em.lti_found);
  EXPECT_NEAR(em.lti_crossover / (0.1 * kW0), 1.0, 1e-6);
  EXPECT_NEAR(em.lti_phase_margin_deg, typical_loop_lti_phase_margin_deg(),
              1e-4);
}

TEST(Stability, EffectiveMarginDegradesWithRatio) {
  // The paper's Fig. 7 (lower plot): PM of lambda collapses as w_UG/w0
  // grows, while the LTI prediction stays constant.
  // Beyond ~0.28 the sampled loop is outright unstable (|lambda| never
  // crosses 1 below w0/2), so the sweep stays inside the usable range.
  double prev_pm = 180.0;
  for (double ratio : {0.02, 0.05, 0.1, 0.15, 0.2, 0.25}) {
    const EffectiveMargins em = effective_margins(make_model(ratio));
    ASSERT_TRUE(em.eff_found) << "ratio " << ratio;
    EXPECT_LT(em.eff_phase_margin_deg, prev_pm);
    EXPECT_LT(em.eff_phase_margin_deg, em.lti_phase_margin_deg);
    prev_pm = em.eff_phase_margin_deg;
  }
}

TEST(Stability, EffectiveCrossoverShiftsUp) {
  // Fig. 7 (upper plot): w_UG,eff / w_UG grows above 1 with the ratio.
  const EffectiveMargins slow = effective_margins(make_model(0.05));
  const EffectiveMargins fast = effective_margins(make_model(0.25));
  ASSERT_TRUE(slow.eff_found && fast.eff_found);
  const double slow_norm = slow.eff_crossover / slow.lti_crossover;
  const double fast_norm = fast.eff_crossover / fast.lti_crossover;
  EXPECT_NEAR(slow_norm, 1.0, 0.05);
  EXPECT_GT(fast_norm, slow_norm);
  EXPECT_GT(fast_norm, 1.05);
}

TEST(Stability, SlowLoopEffectiveMarginNearLti) {
  const EffectiveMargins em = effective_margins(make_model(0.01));
  ASSERT_TRUE(em.eff_found);
  EXPECT_NEAR(em.eff_phase_margin_deg, em.lti_phase_margin_deg, 2.0);
}

TEST(Stability, ClosedLoopPeakingGrowsWithRatio) {
  // Fig. 6: "peaking at the passband's edge becomes worse".
  const ClosedLoopSummary slow = closed_loop_summary(make_model(0.05));
  const ClosedLoopSummary fast = closed_loop_summary(make_model(0.25));
  EXPECT_GT(fast.peaking_db, slow.peaking_db + 1.0);
  EXPECT_NEAR(slow.ref_level_db, 0.0, 0.1);  // unity DC gain
}

TEST(Stability, BandwidthShiftsRightWithRatio) {
  // Fig. 6: "the effective bandwidth shifts to the right".  (For very
  // fast loops the -3 dB point moves beyond w0/2 entirely, so compare
  // two ratios whose bandwidth is still measurable.)
  const ClosedLoopSummary slow = closed_loop_summary(make_model(0.02));
  const ClosedLoopSummary fast = closed_loop_summary(make_model(0.1));
  ASSERT_TRUE(slow.bw_found);
  ASSERT_TRUE(fast.bw_found);
  // Normalized to the respective w_UG.
  EXPECT_GT(fast.bw_3db / (0.1 * kW0), slow.bw_3db / (0.02 * kW0));
}

TEST(Stability, FastLoopBandwidthEscapesNyquistRange) {
  // At w_UG/w0 = 0.25 the closed-loop response stays above -3 dB all
  // the way to w0/2 -- the extreme form of the bandwidth shift.
  const ClosedLoopSummary fast = closed_loop_summary(make_model(0.25));
  EXPECT_FALSE(fast.bw_found);
}

TEST(Stability, HalfRateLambdaIsRealAndNegative) {
  const SamplingPllModel m = make_model(0.2);
  const double hr = half_rate_lambda(m);
  // For this loop family lambda(j w0/2) sits on the negative real axis.
  EXPECT_LT(hr, 0.0);
  EXPECT_FALSE(predicts_half_rate_instability(m));
}

TEST(Stability, HalfRateInstabilityForExtremeBandwidth) {
  // Push the loop far past the sampling limit; the half-rate criterion
  // must flag it.
  bool flagged = false;
  for (double ratio : {0.3, 0.4, 0.6, 0.8}) {
    if (predicts_half_rate_instability(make_model(ratio))) {
      flagged = true;
      break;
    }
  }
  EXPECT_TRUE(flagged);
}

TEST(Stability, SummaryRejectsTinyGrid) {
  EXPECT_THROW(closed_loop_summary(make_model(0.1), 4),
               std::invalid_argument);
}

}  // namespace
}  // namespace htmpll
