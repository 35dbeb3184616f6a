#include <cmath>
#include <cstdint>
#include <numbers>
#include <vector>

#include <gtest/gtest.h>

#include "htmpll/core/stability.hpp"
#include "htmpll/design/design_sweep.hpp"
#include "htmpll/lti/bode.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/parallel/thread_pool.hpp"

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

/// The batched (plan) margins of `loop` against the oracle at 1e-9
/// relative.
void expect_margins_match_scalar(const EffectiveMargins& b,
                                 const PllParameters& loop) {
  const EffectiveMargins s = scalar_margins(SamplingPllModel(loop));
  ASSERT_EQ(b.lti_found, s.lti_found);
  ASSERT_EQ(b.eff_found, s.eff_found);
  ASSERT_TRUE(b.lti_found && b.eff_found);
  EXPECT_LT(std::abs(b.lti_crossover - s.lti_crossover) / s.lti_crossover,
            1e-9);
  EXPECT_LT(std::abs(b.eff_crossover - s.eff_crossover) / s.eff_crossover,
            1e-9);
  EXPECT_LT(std::abs(b.lti_phase_margin_deg - s.lti_phase_margin_deg) /
                s.lti_phase_margin_deg,
            1e-9);
  EXPECT_LT(std::abs(b.eff_phase_margin_deg - s.eff_phase_margin_deg) /
                s.eff_phase_margin_deg,
            1e-9);
}

TEST(Stability, BatchedCrossoverMatchesScalarSearch) {
  // Both crossover hunts (lambda through the plan's batch kernels, A
  // through the SIMD rational kernel) run grid-first.  Agreement with
  // find_gain_crossover must hold to 1e-9 at every sweep ratio.
  for (double ratio : {0.03, 0.1, 0.2, 0.25}) {
    SCOPED_TRACE(testing::Message() << "ratio " << ratio);
    const SamplingPllModel planned = make_model(ratio);
    expect_margins_match_scalar(effective_margins(planned),
                                make_typical_loop(ratio * kW0, kW0));
  }
}

TEST(Stability, ScanGridMemoKeepsMarginsBitwise) {
  // The scan-grid memo keeps two grids per thread, so cycling three w0
  // values (A B C A B C) evicts on every call and each call builds its
  // two windows; repeating the last w0 builds nothing.  Each repeat must
  // equal its first call bit for bit, and each the scalar search.
  std::vector<PllParameters> loops;
  for (const double w0 : {kW0, 1e6 * kW0, 1e7 * kW0}) {
    loops.push_back(make_typical_loop(0.1 * w0, w0));
  }
  // A w0 outside the cycle first, so no earlier test's grids are held.
  (void)effective_margins(SamplingPllModel(make_typical_loop(0.33 * kW0,
                                                             3.3 * kW0)));
  obs::enable();
  const auto builds = [] {
    return obs::snapshot().counter_value("core.margin_scan_grids");
  };
  const std::uint64_t start = builds();
  std::vector<EffectiveMargins> first;
  for (int pass = 0; pass < 2; ++pass) {
    for (std::size_t k = 0; k < loops.size(); ++k) {
      SCOPED_TRACE(testing::Message() << "pass " << pass << " w0 #" << k);
      const EffectiveMargins em =
          effective_margins(SamplingPllModel(loops[k]));
      if (pass == 0) {
        first.push_back(em);
        expect_margins_match_scalar(em, loops[k]);
        continue;
      }
      EXPECT_EQ(em.lti_crossover, first[k].lti_crossover);
      EXPECT_EQ(em.lti_phase_margin_deg, first[k].lti_phase_margin_deg);
      EXPECT_EQ(em.eff_crossover, first[k].eff_crossover);
      EXPECT_EQ(em.eff_phase_margin_deg, first[k].eff_phase_margin_deg);
    }
  }
  EXPECT_EQ(builds() - start, 12u);
  (void)effective_margins(SamplingPllModel(loops.back()));
  EXPECT_EQ(builds() - start, 12u);
  obs::disable();
}

TEST(Stability, DesignMapBuildsEachScanGridOncePerThread) {
  // Every point of a one-w0 design map scans the same two windows, so
  // each thread that runs points builds at most those two grids (the
  // map used to build two per point: 192 for 24 x 4).  The w0 is used
  // by no other test, so no thread starts with these grids in hand.
  DesignSpec spec;
  spec.w0 = 3.7 * kW0;
  spec.target_w_ug = 0.1 * spec.w0;
  spec.target_pm_deg = 60.0;
  std::vector<double> ratios;
  for (int i = 0; i < 24; ++i) ratios.push_back(0.01 + 0.01 * i);
  obs::enable();
  const auto before = obs::snapshot();
  const DesignSpaceMap map =
      design_space_map(spec, ratios, {2.5, 3.5, 4.5, 5.5});
  const auto after = obs::snapshot();
  obs::disable();
  ASSERT_EQ(map.points.size(), 96u);
  const std::uint64_t builds =
      after.counter_value("core.margin_scan_grids") -
      before.counter_value("core.margin_scan_grids");
  EXPECT_GE(builds, 2u);
  EXPECT_LE(builds, 2u * ThreadPool::global().threads());
}

TEST(Stability, BatchedCrossoverHandlesUnstableLoop) {
  // Beyond the stability boundary |lambda| never falls through 1 below
  // w0/2: the batched hunt must report "not found" exactly like the
  // scalar search, not fabricate a crossover.
  const SamplingPllModel fast = make_model(0.32);
  const EffectiveMargins b = effective_margins(fast);
  const EffectiveMargins s = scalar_margins(fast);
  EXPECT_EQ(b.eff_found, s.eff_found);
  EXPECT_EQ(b.lti_found, s.lti_found);
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
