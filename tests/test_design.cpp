#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "htmpll/design/design.hpp"
#include "htmpll/design/design_sweep.hpp"
#include "htmpll/lti/roots.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/util/grid.hpp"
#include "obs_scope.hpp"

namespace htmpll {
namespace {

constexpr double kW0 = 2.0 * std::numbers::pi * 1e6;
constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(Design, GammaFromPhaseMarginInvertsAnalyticFormula) {
  for (double pm : {20.0, 45.0, 61.9275, 75.0}) {
    const double g = gamma_for_phase_margin(pm);
    EXPECT_NEAR(typical_loop_lti_phase_margin_deg(g), pm, 1e-9)
        << "pm " << pm;
  }
  EXPECT_THROW(gamma_for_phase_margin(0.0), std::invalid_argument);
  EXPECT_THROW(gamma_for_phase_margin(90.0), std::invalid_argument);
}

TEST(Design, ClassicalMeetsLtiSpec) {
  DesignSpec spec;
  spec.w0 = kW0;
  spec.target_w_ug = 0.05 * kW0;
  spec.target_pm_deg = 60.0;
  spec.kvco = 2.0;
  spec.ctot = 4.7e-10;
  const DesignResult r = design_classical(spec);
  EXPECT_TRUE(r.meets_spec_lti);
  EXPECT_NEAR(r.margins.lti_crossover / spec.target_w_ug, 1.0, 1e-5);
  EXPECT_NEAR(r.margins.lti_phase_margin_deg, 60.0, 0.01);
  // Physical budget respected.
  EXPECT_NEAR(r.params.filter.total_cap() / spec.ctot, 1.0, 1e-9);
  EXPECT_NEAR(r.params.kvco, 2.0, 1e-12);
  EXPECT_TRUE(r.z_domain_stable);
}

TEST(Design, ClassicalSlowLoopAlsoMeetsEffectiveSpec) {
  DesignSpec spec;
  spec.w0 = kW0;
  spec.target_w_ug = 0.01 * kW0;
  spec.target_pm_deg = 55.0;
  const DesignResult r = design_classical(spec);
  EXPECT_TRUE(r.meets_spec_effective);
}

TEST(Design, ClassicalFastLoopMissesEffectiveSpec) {
  // This is the paper's warning case: LTI says fine, lambda says no.
  DesignSpec spec;
  spec.w0 = kW0;
  spec.target_w_ug = 0.3 * kW0;
  spec.target_pm_deg = 60.0;
  const DesignResult r = design_classical(spec);
  EXPECT_TRUE(r.meets_spec_lti);
  EXPECT_FALSE(r.meets_spec_effective);
}

TEST(Design, AwareDesignBacksOffBandwidth) {
  DesignSpec spec;
  spec.w0 = kW0;
  spec.target_w_ug = 0.3 * kW0;
  spec.target_pm_deg = 60.0;
  const DesignResult r = design_time_varying_aware(spec);
  EXPECT_TRUE(r.meets_spec_effective);
  ASSERT_TRUE(r.margins.lti_found);
  EXPECT_LT(r.margins.lti_crossover, spec.target_w_ug);
  // Should not back off absurdly far (1 deg of PM slack is reached
  // around w_UG/w0 ~ 0.01 for this loop family).
  EXPECT_GT(r.margins.lti_crossover, 0.005 * kW0);
}

TEST(Design, AwareDesignKeepsBandwidthWhenSpecAlreadyMet) {
  DesignSpec spec;
  spec.w0 = kW0;
  spec.target_w_ug = 0.01 * kW0;
  spec.target_pm_deg = 55.0;
  const DesignResult r = design_time_varying_aware(spec);
  EXPECT_NEAR(r.margins.lti_crossover / spec.target_w_ug, 1.0, 1e-5);
  // When the target already meets the effective spec the aware design IS
  // the classical design -- same synthesized components, no backoff.
  const DesignResult c = design_classical(spec);
  EXPECT_EQ(r.params.icp, c.params.icp);
  EXPECT_EQ(r.params.filter.r, c.params.filter.r);
  EXPECT_EQ(r.params.filter.c1, c.params.filter.c1);
  EXPECT_EQ(r.params.filter.c2, c.params.filter.c2);
  EXPECT_EQ(r.margins.eff_phase_margin_deg,
            c.margins.eff_phase_margin_deg);
}

TEST(Design, AwareDesignIterationBudgetBoundsRefinement) {
  // A starved iteration budget must still return a spec-meeting design
  // (the bisection keeps the last passing point), just a conservative
  // one; the default budget recovers strictly more bandwidth.
  DesignSpec spec;
  spec.w0 = kW0;
  spec.target_w_ug = 0.3 * kW0;
  spec.target_pm_deg = 60.0;
  // Tight slack: the first bisection midpoint still misses the spec, so
  // a one-iteration budget is exhausted before any midpoint passes and
  // the result falls back to the conservative bracket bottom.
  spec.pm_slack_deg = 0.03;
  AwareDesignOptions starved;
  starved.max_iterations = 1;
  const DesignResult coarse = design_time_varying_aware(spec, starved);
  EXPECT_TRUE(coarse.meets_spec_effective);
  const DesignResult fine = design_time_varying_aware(spec);
  EXPECT_TRUE(fine.meets_spec_effective);
  ASSERT_TRUE(coarse.margins.lti_found && fine.margins.lti_found);
  EXPECT_LT(coarse.margins.lti_crossover, fine.margins.lti_crossover);
  // Both still back off below the (unsafe) LTI target.
  EXPECT_LT(fine.margins.lti_crossover, spec.target_w_ug);
}

TEST(Design, AwareDesignRejectsUnreachableSpec) {
  // Negative slack demands MORE effective margin than the LTI target --
  // the sampled loop always loses margin, so no bandwidth reduction can
  // ever satisfy it and the 1000x-backoff probe must throw.
  DesignSpec spec;
  spec.w0 = kW0;
  spec.target_w_ug = 0.3 * kW0;
  spec.target_pm_deg = 60.0;
  spec.pm_slack_deg = -5.0;
  EXPECT_THROW(design_time_varying_aware(spec), std::invalid_argument);
}

TEST(Design, SweepProducesMonotoneEffectiveMargins) {
  DesignSpec spec;
  spec.w0 = kW0;
  spec.target_w_ug = 0.1 * kW0;  // unused: each ratio sets the crossover
  spec.target_pm_deg = 60.0;
  const double gamma = gamma_for_phase_margin(spec.target_pm_deg);
  const std::vector<double> ratios{0.03, 0.06, 0.1, 0.15, 0.2};
  std::vector<DesignResult> results;
  for (const double r : ratios) {
    results.push_back(evaluate_design(spec, r * kW0, gamma));
  }
  for (std::size_t i = 1; i < results.size(); ++i) {
    ASSERT_TRUE(results[i].margins.eff_found);
    EXPECT_LT(results[i].margins.eff_phase_margin_deg,
              results[i - 1].margins.eff_phase_margin_deg);
  }
}

TEST(Design, DesignSpaceMapMatchesPointwiseEvaluation) {
  // The pooled (w_ug, gamma) grid must reproduce evaluate_design point
  // by point: same synthesis, same margins, same verdicts -- the pool
  // only distributes work, it never changes values.
  DesignSpec spec;
  spec.w0 = kW0;
  spec.target_w_ug = 0.1 * kW0;
  spec.target_pm_deg = 60.0;
  const std::vector<double> ratios{0.05, 0.12, 0.2};
  const std::vector<double> gammas{3.0, 5.0};
  ScopedObs on(true);
  obs::Counter& sweeps = obs::counter("lti.aberth_sweeps");
  const std::uint64_t map_s0 = sweeps.value();
  const DesignSpaceMap map = design_space_map(spec, ratios, gammas);
  const std::uint64_t map_sweeps = sweeps.value() - map_s0;
  ASSERT_EQ(map.points.size(), ratios.size() * gammas.size());
  // Each point solves its z-domain characteristic polynomial once, for
  // both the verdict and the pole seeds: the map's Aberth sweeps are
  // those of one find_roots(characteristic()) per point.
  std::uint64_t one_solve_per_point = 0;
  for (const DesignPoint& pt : map.points) {
    const ImpulseInvariantModel zm(
        SamplingPllModel(pt.design.params).open_loop_gain(), kW0);
    const std::uint64_t s0 = sweeps.value();
    (void)find_roots(zm.characteristic());
    one_solve_per_point += sweeps.value() - s0;
  }
  EXPECT_GT(one_solve_per_point, 0u);
  EXPECT_EQ(map_sweeps, one_solve_per_point);
  for (std::size_t g = 0; g < gammas.size(); ++g) {
    for (std::size_t r = 0; r < ratios.size(); ++r) {
      const DesignPoint& pt = map.at(r, g);
      EXPECT_EQ(pt.ratio, ratios[r]);
      EXPECT_EQ(pt.gamma, gammas[g]);
      const DesignResult ref =
          evaluate_design(spec, ratios[r] * kW0, gammas[g]);
      const EffectiveMargins& m = pt.design.margins;
      EXPECT_EQ(m.lti_crossover, ref.margins.lti_crossover);
      EXPECT_EQ(m.lti_phase_margin_deg, ref.margins.lti_phase_margin_deg);
      EXPECT_EQ(m.lti_found, ref.margins.lti_found);
      EXPECT_EQ(m.eff_crossover, ref.margins.eff_crossover);
      EXPECT_EQ(m.eff_phase_margin_deg, ref.margins.eff_phase_margin_deg);
      ASSERT_EQ(m.eff_found, ref.margins.eff_found);
      EXPECT_EQ(pt.design.z_domain_stable, ref.z_domain_stable);
      EXPECT_EQ(pt.half_rate_stable, pt.half_rate_lambda > -1.0);
      // Poles included by default, sorted by ascending frequency, and
      // bit for bit what closed_loop_poles gives on the point's own model.
      ASSERT_FALSE(pt.poles.empty());
      for (std::size_t i = 1; i < pt.poles.size(); ++i) {
        EXPECT_LE(pt.poles[i - 1].frequency, pt.poles[i].frequency);
      }
      const std::vector<ClosedLoopPole> own =
          closed_loop_poles(SamplingPllModel(pt.design.params));
      ASSERT_EQ(pt.poles.size(), own.size());
      for (std::size_t i = 0; i < own.size(); ++i) {
        EXPECT_EQ(pt.poles[i].s, own[i].s);
        EXPECT_EQ(pt.poles[i].residual, own[i].residual);
        EXPECT_EQ(pt.poles[i].iterations, own[i].iterations);
        EXPECT_EQ(pt.poles[i].converged, own[i].converged);
      }
    }
  }
}

TEST(Design, DesignSpaceMapValidatesGrid) {
  DesignSpec spec;
  spec.w0 = kW0;
  spec.target_w_ug = 0.1 * kW0;
  spec.target_pm_deg = 60.0;
  EXPECT_THROW(design_space_map(spec, {}, {4.0}), std::invalid_argument);
  EXPECT_THROW(design_space_map(spec, {0.1}, {}), std::invalid_argument);
  EXPECT_THROW(design_space_map(spec, {0.6}, {4.0}),
               std::invalid_argument);
}

TEST(Design, JitterModelsAgreeForSlowLoops) {
  // Deep inside the stable range both models compute almost the same
  // integrated jitter (sampling effects vanish as w_UG/w0 -> 0).
  JitterOptimizationSpec spec;
  spec.w0 = kW0;
  spec.s_ref = PowerLawPsd{1e-20, 0.0, 0.0};
  spec.s_vco = PowerLawPsd{0.0, 0.0, 1e-10};
  const double w_ug = 0.005 * kW0;
  const double tv = output_jitter_tv(spec, w_ug);
  const double lti = output_jitter_lti(spec, w_ug);
  EXPECT_NEAR(tv / lti, 1.0, 0.05);
}

TEST(Design, JitterHasInteriorOptimum) {
  // White reference noise vs 1/w^2 VCO noise: too narrow copies VCO
  // noise, too wide copies reference noise (and peaks) -- an interior
  // minimum must exist and the TV model must find it.
  JitterOptimizationSpec spec;
  spec.w0 = kW0;
  const double ref_white = 1e-18;
  // VCO random-walk noise crossing the reference floor at 0.05 w0, so
  // the optimal loop bandwidth sits near there.
  spec.s_ref = PowerLawPsd{ref_white, 0.0, 0.0};
  spec.s_vco = PowerLawPsd{
      0.0, 0.0, ref_white * (0.05 * kW0) * (0.05 * kW0)};
  const JitterOptimizationResult r = optimize_bandwidth_for_jitter(spec);
  EXPECT_GT(r.w_ug_tv, spec.ratio_min * kW0 * 1.5);
  EXPECT_LT(r.w_ug_tv, spec.ratio_max * kW0 / 1.05);
  // The optimum beats its neighbours.
  EXPECT_LT(r.rms_tv, output_jitter_tv(spec, r.w_ug_tv * 1.5));
  EXPECT_LT(r.rms_tv, output_jitter_tv(spec, r.w_ug_tv / 1.5));
  EXPECT_GE(r.penalty, 1.0);
}

TEST(Design, LtiPickCarriesJitterPenaltyForAggressiveNoise) {
  // Noisy VCO pushes the optimum bandwidth up, into the region where
  // LTI analysis underestimates peaking and folding: its pick must be
  // measurably worse than the TV optimum.
  JitterOptimizationSpec spec;
  spec.w0 = kW0;
  const double ref_white = 1e-22;
  // VCO noise crossing the reference floor at 0.5 w0: the LTI model
  // keeps rewarding more bandwidth, the TV model's peaking/folding says
  // stop earlier.
  spec.s_ref = PowerLawPsd{ref_white, 0.0, 0.0};
  spec.s_vco = PowerLawPsd{
      0.0, 0.0, ref_white * (0.5 * kW0) * (0.5 * kW0)};
  const JitterOptimizationResult r = optimize_bandwidth_for_jitter(spec);
  EXPECT_GE(r.penalty, 1.0);
  EXPECT_NE(r.w_ug_lti, r.w_ug_tv);
}

TEST(Design, JitterOptimizerValidatesInput) {
  JitterOptimizationSpec spec;
  spec.w0 = kW0;
  EXPECT_THROW(optimize_bandwidth_for_jitter(spec),
               std::invalid_argument);  // no noise: both PSDs all-zero
  spec.s_ref = PowerLawPsd{1e-20, 0.0, 0.0};
  spec.s_vco = PowerLawPsd{0.0, 0.0, 1e-10};
  spec.ratio_min = 0.3;
  spec.ratio_max = 0.2;
  EXPECT_THROW(optimize_bandwidth_for_jitter(spec),
               std::invalid_argument);
}

// ---- jitter objectives vs the pointwise transfer chain ----------------

/// TV output rms through the pointwise transfers: the folded reference
/// and VCO PSDs of NoiseAnalysis, integrated by its integrated_rms.
double jitter_tv_oracle(const JitterOptimizationSpec& spec, double w_ug) {
  const SamplingPllModel model(
      make_typical_loop(w_ug, spec.w0, spec.gamma));
  const NoiseAnalysis na(model, spec.fold_harmonics);
  return na.integrated_rms(
      [&](double w) {
        return na.output_psd_from_reference(w, spec.s_ref) +
               na.output_psd_from_vco(w, spec.s_vco);
      },
      spec.w_lo_frac * spec.w0, spec.w_hi_frac * spec.w0,
      spec.quadrature_points);
}

/// LTI output rms computed pointwise: |A/(1+A)|^2 S_ref +
/// |1/(1+A)|^2 S_vco, integrated by NoiseAnalysis::integrated_rms.
double jitter_lti_oracle(const JitterOptimizationSpec& spec, double w_ug) {
  const PllParameters p = make_typical_loop(w_ug, spec.w0, spec.gamma);
  const RationalFunction a = p.open_loop_gain();
  const SamplingPllModel model(p);
  const NoiseAnalysis na(model, 1);
  return na.integrated_rms(
      [&](double w) {
        const cplx av = a(cplx{0.0, w});
        const cplx h = av / (1.0 + av);
        return std::norm(h) * spec.s_ref(w) +
               std::norm(1.0 - h) * spec.s_vco(w);
      },
      spec.w_lo_frac * spec.w0, spec.w_hi_frac * spec.w0,
      spec.quadrature_points);
}

JitterOptimizationSpec jitter_spec(const PowerLawPsd& ref,
                                   const PowerLawPsd& vco) {
  JitterOptimizationSpec spec;
  spec.w0 = kW0;
  spec.s_ref = ref;
  spec.s_vco = vco;
  return spec;
}

TEST(Design, JitterObjectivesMatchPointwiseOracle) {
  // White, flicker and random-walk terms on both sources, so the
  // folded VCO sum sees every power law.
  const double c = 0.05 * kW0;
  const std::vector<std::pair<PowerLawPsd, PowerLawPsd>> psds = {
      {{1e-20, 0.0, 0.0}, {0.0, 0.0, 1e-20 * c * c}},
      {{1e-20, 1e-20 * c, 0.0}, {1e-21, 0.0, 1e-20 * c * c}},
      {{1e-20, 1e-21 * c, 1e-22 * c * c}, {0.0, 1e-20 * c, 1e-20 * c * c}},
      {{0.0, 0.0, 1e-20 * c * c}, {1e-21, 1e-21 * c, 1e-21 * c * c}}};
  double worst_tv = 0.0;
  double worst_lti = 0.0;
  for (const auto& [ref, vco] : psds) {
    JitterOptimizationSpec spec = jitter_spec(ref, vco);
    for (const double gamma : {2.5, 4.0, 6.0}) {
      spec.gamma = gamma;
      for (const int fold : {0, 12, 16}) {
        spec.fold_harmonics = fold;
        for (int k = 0; k < 10; ++k) {
          const double ratio = 0.002 * std::pow(0.26 / 0.002, k / 9.0);
          const double w_ug = ratio * kW0;
          const double tv = output_jitter_tv(spec, w_ug);
          const double tv_ref = jitter_tv_oracle(spec, w_ug);
          const double lti = output_jitter_lti(spec, w_ug);
          const double lti_ref = jitter_lti_oracle(spec, w_ug);
          worst_tv = std::max(worst_tv, std::abs(tv - tv_ref) / tv_ref);
          worst_lti = std::max(worst_lti, std::abs(lti - lti_ref) / lti_ref);
        }
      }
    }
  }
  EXPECT_LE(worst_tv, 1e-12);
  EXPECT_LE(worst_lti, 1e-12);
}

TEST(Design, JitterOptimizerReportsOracleRms) {
  const double c = 0.05 * kW0;
  const JitterOptimizationSpec spec =
      jitter_spec({1e-18, 0.0, 0.0}, {0.0, 0.0, 1e-18 * c * c});
  const JitterOptimizationResult r = optimize_bandwidth_for_jitter(spec);
  const double at_tv = jitter_tv_oracle(spec, r.w_ug_tv);
  const double at_lti = jitter_tv_oracle(spec, r.w_ug_lti);
  EXPECT_LE(std::abs(r.rms_tv - at_tv) / at_tv, 1e-12);
  EXPECT_LE(std::abs(r.rms_at_lti_pick - at_lti) / at_lti, 1e-12);
}

// Both objectives reject bad specs up front, for the TV and LTI model.
void expect_jitter_objectives_reject(const JitterOptimizationSpec& spec) {
  const double w_ug = 0.05 * kW0;
  EXPECT_THROW(output_jitter_tv(spec, w_ug), std::invalid_argument);
  EXPECT_THROW(output_jitter_lti(spec, w_ug), std::invalid_argument);
}

const PowerLawPsd kRefPsd{1e-20, 0.0, 0.0};
const PowerLawPsd kVcoPsd{0.0, 0.0, 1e-10};

TEST(Design, JitterObjectivesRejectAllZeroPsds) {
  // A spec without noise -- the default one -- has nothing to optimize.
  const JitterOptimizationSpec silent = jitter_spec({}, {});
  expect_jitter_objectives_reject(silent);
  EXPECT_THROW(optimize_bandwidth_for_jitter(silent), std::invalid_argument);
  // One silent source is a valid spec.
  const double w_ug = 0.05 * kW0;
  EXPECT_GT(output_jitter_tv(jitter_spec({}, kVcoPsd), w_ug), 0.0);
  EXPECT_GT(output_jitter_lti(jitter_spec(kRefPsd, {}), w_ug), 0.0);
}

TEST(Design, JitterObjectivesRejectNonPositiveReferenceRate) {
  JitterOptimizationSpec spec = jitter_spec(kRefPsd, kVcoPsd);
  spec.w0 = 0.0;
  expect_jitter_objectives_reject(spec);
  spec.w0 = -kW0;
  expect_jitter_objectives_reject(spec);
}

TEST(Design, JitterObjectivesRejectNegativeFold) {
  JitterOptimizationSpec spec = jitter_spec(kRefPsd, kVcoPsd);
  spec.fold_harmonics = -1;
  expect_jitter_objectives_reject(spec);
}

TEST(Design, JitterObjectivesRejectTooFewQuadraturePoints) {
  JitterOptimizationSpec spec = jitter_spec(kRefPsd, kVcoPsd);
  spec.quadrature_points = 1;
  expect_jitter_objectives_reject(spec);
  spec.quadrature_points = 0;
  expect_jitter_objectives_reject(spec);
}

// ---- jitter search vs the half-rate stability boundary ---------------

/// jitter_bandwidth's spec: a 10 MHz reference, white reference noise
/// and VCO random walk crossing it at 0.3 w0, gamma 4.
JitterOptimizationSpec jitter_bandwidth_spec() {
  const double w0 = 2.0 * std::numbers::pi * 10e6;
  const double ref_white = 1e-24;
  JitterOptimizationSpec spec;
  spec.w0 = w0;
  spec.s_ref = PowerLawPsd{ref_white, 0.0, 0.0};
  spec.s_vco = PowerLawPsd{0.0, 0.0, ref_white * (0.3 * w0) * (0.3 * w0)};
  return spec;
}

bool half_rate_unstable(const JitterOptimizationSpec& spec, double w_ug) {
  return predicts_half_rate_instability(
      SamplingPllModel(make_typical_loop(w_ug, spec.w0, spec.gamma)));
}

TEST(Design, StabilityBracketStraddlesTheHalfRateBoundary) {
  const JitterOptimizationSpec spec = jitter_bandwidth_spec();
  const auto stable_at = [&](double ratio) {
    return !half_rate_unstable(spec, ratio * spec.w0);
  };
  const StabilityBracket b = bisect_stability_boundary(stable_at, 0.02, 0.9,
                                                       45);
  EXPECT_FALSE(half_rate_unstable(spec, b.stable * spec.w0));
  EXPECT_TRUE(half_rate_unstable(spec, b.unstable * spec.w0));
  EXPECT_LE(b.unstable - b.stable, 0.88 * std::ldexp(1.0, -45));
  EXPECT_NEAR(b.stable, 0.276169, 1e-6);
  // max_stable_crossover_ratio reports the bracket's midpoint.
  EXPECT_EQ(max_stable_crossover_ratio(make_typical_loop, spec.w0,
                                       spec.gamma)
                .lambda_ratio,
            b.midpoint());
  EXPECT_THROW(bisect_stability_boundary({}, 0.02, 0.9, 45),
               std::invalid_argument);
  EXPECT_THROW(bisect_stability_boundary(stable_at, 0.3, 0.3, 45),
               std::invalid_argument);
}

TEST(Design, StabilitySearchRejectsRangesThatDoNotBracket) {
  // The gamma = 4 loop turns unstable at 0.2762 w0: [0.02, 0.2] is
  // stable at both ends, [0.3, 0.9] unstable at both.  Bisecting either
  // would report an end of the range as the boundary.
  const JitterOptimizationSpec spec = jitter_bandwidth_spec();
  const auto stable_at = [&](double ratio) {
    return !half_rate_unstable(spec, ratio * spec.w0);
  };
  const double nan = std::numeric_limits<double>::quiet_NaN();
  EXPECT_THROW(bisect_stability_boundary(stable_at, 0.02, 0.2, 45),
               std::invalid_argument);
  EXPECT_THROW(bisect_stability_boundary(stable_at, 0.3, 0.9, 45),
               std::invalid_argument);
  EXPECT_THROW(bisect_stability_boundary(stable_at, nan, 0.9, 45),
               std::invalid_argument);
  EXPECT_THROW(bisect_stability_boundary(stable_at, 0.02, nan, 45),
               std::invalid_argument);
  EXPECT_THROW(bisect_stability_boundary(stable_at, 0.02, kInf, 45),
               std::invalid_argument);
  EXPECT_THROW(bisect_stability_boundary(stable_at, 0.02, 0.9, 0),
               std::invalid_argument);
}

TEST(Design, GardnerChartBoundariesAreWhereStabilityChanges) {
  // The second-order loop is still stable at 0.9 w0 for gamma 8 and 12
  // (lambda(j w0/2) = -0.9916 and -0.8196 there); its boundaries lie
  // past the search's initial ceiling, which the chart used to print.
  const std::vector<double> gammas = {1.5, 2.0, 3.0, 4.0, 6.0, 8.0, 12.0};
  const std::vector<GardnerRow> rows = gardner_stability_rows(kW0, gammas);
  ASSERT_EQ(rows.size(), gammas.size());
  for (const GardnerRow& row : rows) {
    const std::pair<LoopBuilder, StabilityBoundary> families[] = {
        {make_second_order_loop, row.second_order},
        {make_typical_loop, row.third_order}};
    for (const auto& [make, b] : families) {
      const auto lambda_stable = [&](double r) {
        return half_rate_lambda(SamplingPllModel(
                   make(r * kW0, kW0, row.gamma))) > -1.0;
      };
      const auto z_stable = [&](double r) {
        return ImpulseInvariantModel(
                   make(r * kW0, kW0, row.gamma).open_loop_gain(), kW0)
            .is_stable();
      };
      EXPECT_TRUE(lambda_stable(b.lambda_ratio - 1e-9)) << row.gamma;
      EXPECT_FALSE(lambda_stable(b.lambda_ratio + 1e-9)) << row.gamma;
      EXPECT_TRUE(z_stable(b.zdomain_ratio - 1e-9)) << row.gamma;
      EXPECT_FALSE(z_stable(b.zdomain_ratio + 1e-9)) << row.gamma;
      EXPECT_NEAR(b.lambda_ratio, b.zdomain_ratio, 1e-9) << row.gamma;
    }
  }
  EXPECT_NEAR(rows[5].second_order.lambda_ratio, 0.903813, 1e-6);
  EXPECT_NEAR(rows[5].second_order.zdomain_ratio, 0.903813, 1e-6);
  EXPECT_NEAR(rows[6].second_order.lambda_ratio, 1.104567, 1e-6);
  EXPECT_NEAR(rows[6].second_order.zdomain_ratio, 1.104567, 1e-6);
}

TEST(Design, JitterTvObjectiveIsInfiniteForHalfRateUnstableLoops) {
  // A loop past the half-rate boundary (0.2762 w0 at gamma 4) has no
  // steady-state jitter; the LTI model, blind to sampling, still
  // reports a finite one.
  const JitterOptimizationSpec spec = jitter_bandwidth_spec();
  for (const double ratio : {0.28, 0.3, 0.4, 0.45, 0.49}) {
    const double w_ug = ratio * spec.w0;
    ASSERT_TRUE(half_rate_unstable(spec, w_ug)) << "ratio " << ratio;
    EXPECT_EQ(output_jitter_tv(spec, w_ug), kInf) << "ratio " << ratio;
    EXPECT_TRUE(std::isfinite(output_jitter_lti(spec, w_ug)))
        << "ratio " << ratio;
  }
  for (const double ratio : {0.26, 0.27}) {
    const double w_ug = ratio * spec.w0;
    ASSERT_FALSE(half_rate_unstable(spec, w_ug)) << "ratio " << ratio;
    EXPECT_TRUE(std::isfinite(output_jitter_tv(spec, w_ug)))
        << "ratio " << ratio;
  }
}

TEST(Design, JitterOptimizerLtiPickPastTheBoundaryHasInfinitePenalty) {
  // With ratio_max past the boundary the LTI search still lands on
  // ratio_max, an unstable loop: its true rms and the penalty are +inf
  // (they read 0.847, 0.768 and 0.728 before, below the promised 1).
  // The TV pick stays stable.
  JitterOptimizationSpec spec = jitter_bandwidth_spec();
  for (const double ratio_max : {0.4, 0.45, 0.49}) {
    spec.ratio_max = ratio_max;
    const JitterOptimizationResult r = optimize_bandwidth_for_jitter(spec);
    EXPECT_TRUE(half_rate_unstable(spec, r.w_ug_lti)) << ratio_max;
    EXPECT_EQ(r.rms_at_lti_pick, kInf) << ratio_max;
    EXPECT_EQ(r.penalty, kInf) << ratio_max;
    EXPECT_FALSE(half_rate_unstable(spec, r.w_ug_tv)) << ratio_max;
    EXPECT_TRUE(std::isfinite(r.rms_tv)) << ratio_max;
  }
}

TEST(Design, JitterOptimizerSearchesOnlyTheStableRange) {
  // On (0.2, 0.49) the TV search used to end at 0.49 w0, an unstable
  // loop whose finite "rms" undercut the stable optimum.  It must stay
  // below the boundary, where no loop beats the optimum of the default
  // range.
  JitterOptimizationSpec spec = jitter_bandwidth_spec();
  const double stable_optimum = optimize_bandwidth_for_jitter(spec).rms_tv;
  spec.ratio_min = 0.2;
  spec.ratio_max = 0.49;
  const JitterOptimizationResult r = optimize_bandwidth_for_jitter(spec);
  EXPECT_FALSE(half_rate_unstable(spec, r.w_ug_tv));
  EXPECT_TRUE(std::isfinite(r.rms_tv));
  EXPECT_GE(r.rms_tv, stable_optimum);
  EXPECT_EQ(r.rms_tv, output_jitter_tv(spec, r.w_ug_tv));
}

TEST(Design, JitterOptimizerRejectsUnstableLowerEnd) {
  JitterOptimizationSpec spec = jitter_bandwidth_spec();
  spec.ratio_min = 0.3;
  spec.ratio_max = 0.45;
  EXPECT_THROW(optimize_bandwidth_for_jitter(spec), std::invalid_argument);
}

// ---- Brent search: accuracy, edge picks, penalty and cost -------------

/// JitterHasInteriorOptimum's spec: white reference noise and VCO random
/// walk crossing it at 0.05 w0.
JitterOptimizationSpec interior_optimum_spec() {
  const double ref_white = 1e-18;
  const double c = 0.05 * kW0;
  return jitter_spec({ref_white, 0.0, 0.0}, {0.0, 0.0, ref_white * c * c});
}

TEST(Design, JitterTvOptimumMatchesADenseScan) {
  // The search stops at a bracket of 1e-9 in ln w, so its optimum lies
  // within one step of a 4000-point log scan's argmin and scores no
  // worse than the scan's best point.
  for (const JitterOptimizationSpec& spec :
       {interior_optimum_spec(), jitter_bandwidth_spec()}) {
    const JitterOptimizationResult r = optimize_bandwidth_for_jitter(spec);
    constexpr std::size_t kScan = 4000;
    const std::vector<double> w = logspace(
        spec.ratio_min * spec.w0, spec.ratio_max * spec.w0, kScan);
    std::size_t best = 0;
    double best_rms = kInf;
    for (std::size_t i = 0; i < kScan; ++i) {
      const double rms = output_jitter_tv(spec, w[i]);
      if (rms < best_rms) {
        best_rms = rms;
        best = i;
      }
    }
    const double step = std::log(spec.ratio_max / spec.ratio_min) /
                        static_cast<double>(kScan - 1);
    ASSERT_GT(best, 0u) << "the optimum must be interior";
    ASSERT_LT(best, kScan - 1) << "the optimum must be interior";
    EXPECT_LE(std::abs(std::log(r.w_ug_tv / w[best])), step);
    EXPECT_LE(r.rms_tv, best_rms * (1.0 + 1e-12));
    EXPECT_EQ(r.rms_tv, output_jitter_tv(spec, r.w_ug_tv));
  }
}

TEST(Design, JitterSearchReadsAnEdgeOptimumExactly) {
  // jitter_bandwidth's LTI objective falls all the way to ratio_max: the
  // pick is ratio_max w0 itself, not a point just inside it.
  JitterOptimizationSpec spec = jitter_bandwidth_spec();
  for (const double ratio_max : {0.2, 0.26}) {
    spec.ratio_max = ratio_max;
    const double hi = spec.ratio_max * spec.w0;
    ASSERT_LT(output_jitter_lti(spec, hi),
              output_jitter_lti(spec, hi * (1.0 - 1e-6)));
    const JitterOptimizationResult r = optimize_bandwidth_for_jitter(spec);
    EXPECT_EQ(r.w_ug_lti, hi) << ratio_max;
    EXPECT_EQ(r.rms_at_lti_pick, output_jitter_tv(spec, hi)) << ratio_max;
  }
  // A VCO corner far below ratio_min puts both optima on ratio_min.
  spec = jitter_bandwidth_spec();
  const double c = 1e-4 * spec.w0;
  spec.s_vco = PowerLawPsd{0.0, 0.0, 1e-24 * c * c};
  const JitterOptimizationResult r = optimize_bandwidth_for_jitter(spec);
  EXPECT_EQ(r.w_ug_tv, spec.ratio_min * spec.w0);
  EXPECT_EQ(r.w_ug_lti, spec.ratio_min * spec.w0);
  EXPECT_EQ(r.penalty, 1.0);
}

TEST(Design, JitterPenaltyIsAtLeastOneOnEdgeOptima) {
  // 192 specs with optima on or near the range ends: VCO corners
  // 0.001-0.05 w0, gamma 2-6, two ratio_min and three ratio_max.  The
  // LTI pick's TV rms may never undercut the TV optimum, with no slack.
  const double w0 = 2.0 * std::numbers::pi * 10e6;
  const double ref_white = 1e-24;
  int specs = 0;
  for (int k = 0; k < 8; ++k) {
    const double corner = 0.001 * std::pow(50.0, k / 7.0) * w0;
    for (const double gamma : {2.0, 10.0 / 3.0, 14.0 / 3.0, 6.0}) {
      for (const double ratio_min : {0.001, 0.002}) {
        for (const double ratio_max : {0.01, 0.05, 0.26}) {
          JitterOptimizationSpec spec;
          spec.w0 = w0;
          spec.s_ref = PowerLawPsd{ref_white, 0.0, 0.0};
          spec.s_vco = PowerLawPsd{0.0, 0.0, ref_white * corner * corner};
          spec.gamma = gamma;
          spec.ratio_min = ratio_min;
          spec.ratio_max = ratio_max;
          const JitterOptimizationResult r =
              optimize_bandwidth_for_jitter(spec);
          EXPECT_GE(r.penalty, 1.0)
              << "corner " << corner / w0 << " gamma " << gamma
              << " ratio_min " << ratio_min << " ratio_max " << ratio_max;
          ++specs;
        }
      }
    }
  }
  EXPECT_EQ(specs, 192);
}

TEST(Design, JitterSearchBuildsFewModels) {
  // Each TV probe builds one model, and so do the LTI pick's rms and
  // the two stability checks; a search that stops where the objective
  // stops resolving needs about 20 probes.
  ScopedObs on(true);
  obs::Counter& builds = obs::counter("core.plan_builds");
  for (const JitterOptimizationSpec& spec :
       {interior_optimum_spec(), jitter_bandwidth_spec()}) {
    const std::uint64_t b0 = builds.value();
    (void)optimize_bandwidth_for_jitter(spec);
    EXPECT_LE(builds.value() - b0, 30u);
  }
}

TEST(Design, RejectsCrossoverBeyondNyquist) {
  DesignSpec spec;
  spec.w0 = kW0;
  spec.target_w_ug = 0.6 * kW0;
  spec.target_pm_deg = 60.0;
  EXPECT_THROW(design_classical(spec), std::invalid_argument);
}

}  // namespace
}  // namespace htmpll
