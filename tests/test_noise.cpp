#include <limits>
#include <numbers>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "htmpll/design/design.hpp"
#include "htmpll/noise/noise.hpp"

namespace htmpll {
namespace {

constexpr double kW0 = 2.0 * std::numbers::pi;
const cplx j{0.0, 1.0};

SamplingPllModel make_model(double ratio) {
  return SamplingPllModel(make_typical_loop(ratio * kW0, kW0));
}

// A NoiseAnalysis keeps a reference to its model: binding a temporary
// one, which would dangle, must not compile.
static_assert(!std::is_constructible_v<NoiseAnalysis, SamplingPllModel, int>);
static_assert(!std::is_constructible_v<NoiseAnalysis, SamplingPllModel>);
static_assert(
    std::is_constructible_v<NoiseAnalysis, const SamplingPllModel&, int>);

TEST(PowerLawPsd, Shapes) {
  const PowerLawPsd psd{1e-12, 1e-9, 1e-6};
  EXPECT_NEAR(psd(1.0), 1e-12 + 1e-9 + 1e-6, 1e-18);
  EXPECT_NEAR(psd(1e3), 1e-12 + 1e-12 + 1e-12, 1e-20);
  EXPECT_NEAR(psd(-1e3), psd(1e3), 0.0);  // even in w
  EXPECT_THROW(psd(0.0), std::invalid_argument);
}

TEST(PowerLawPsd, RejectsNegativeOrNonFiniteCoefficients) {
  // A negative coefficient made a negative PSD and a NaN jitter; a NaN
  // or infinite one a NaN PSD.  The per-point call, every slot of the
  // fold grid and both PSDs of a jitter spec reject them.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const SamplingPllModel m = make_model(0.1);
  const NoiseAnalysis na(m, 4);
  const PowerLawPsd good{1e-14, 0.0, 0.0};
  const std::vector<double> w{0.05 * kW0, 0.1 * kW0};
  for (const PowerLawPsd bad :
       {PowerLawPsd{-1e-14, 0.0, 0.0}, PowerLawPsd{0.0, -1e-12, 0.0},
        PowerLawPsd{0.0, 0.0, -1e-8}, PowerLawPsd{nan, 0.0, 0.0},
        PowerLawPsd{0.0, inf, 0.0}, PowerLawPsd{0.0, 0.0, nan}}) {
    EXPECT_THROW(bad(1.0), std::invalid_argument);
    EXPECT_THROW(na.output_psd_grid(w, bad, good, good),
                 std::invalid_argument);
    EXPECT_THROW(na.output_psd_grid(w, good, bad, good),
                 std::invalid_argument);
    EXPECT_THROW(na.output_psd_grid(w, good, good, bad),
                 std::invalid_argument);
    EXPECT_THROW(
        na.integrated_jitter(0.01 * kW0, 0.4 * kW0, good, bad, good),
        std::invalid_argument);
    EXPECT_THROW(
        na.integrated_jitter(0.01 * kW0, 0.4 * kW0, bad, good, good),
        std::invalid_argument);
    for (PowerLawPsd JitterOptimizationSpec::*slot :
         {&JitterOptimizationSpec::s_ref, &JitterOptimizationSpec::s_vco}) {
      JitterOptimizationSpec spec;
      spec.w0 = kW0;
      spec.s_ref = good;
      spec.s_vco = good;
      spec.*slot = bad;
      EXPECT_THROW(output_jitter_tv(spec, 0.05 * kW0), std::invalid_argument);
      EXPECT_THROW(output_jitter_lti(spec, 0.05 * kW0),
                   std::invalid_argument);
      EXPECT_THROW(optimize_bandwidth_for_jitter(spec),
                   std::invalid_argument);
    }
  }
}

TEST(Noise, ReferenceTransferIsLowpass) {
  const SamplingPllModel m = make_model(0.1);
  const NoiseAnalysis na(m);
  // In-band: reference noise passes (|H00| ~ 1).
  EXPECT_NEAR(std::abs(na.reference_transfer(0.001 * kW0)), 1.0, 0.02);
  // Far out of band (near w0/2): strongly attenuated relative to DC.
  EXPECT_LT(std::abs(na.reference_transfer(0.49 * kW0)), 0.5);
}

TEST(Noise, VcoTransferIsHighpass) {
  const SamplingPllModel m = make_model(0.1);
  const NoiseAnalysis na(m);
  // In-band: VCO noise suppressed by the loop.
  EXPECT_LT(std::abs(na.vco_transfer(0, 0.001 * kW0)), 0.05);
  // Out of band: VCO noise passes.
  EXPECT_NEAR(std::abs(na.vco_transfer(0, 0.49 * kW0)), 1.0, 0.5);
}

TEST(Noise, TransfersComplementAtBaseband) {
  // T_ref + T_vco(m=0) = 1 by construction.
  const SamplingPllModel m = make_model(0.25);
  const NoiseAnalysis na(m);
  const double w = 0.123 * kW0;
  EXPECT_NEAR(std::abs(na.reference_transfer(w) + na.vco_transfer(0, w) -
                       cplx{1.0}),
              0.0, 1e-12);
}

TEST(Noise, SidebandVcoTransfersShareMagnitude) {
  // For m != 0 the rank-one structure gives identical transfer -H00.
  const SamplingPllModel m = make_model(0.2);
  const NoiseAnalysis na(m);
  const double w = 0.2 * kW0;
  const cplx t1 = na.vco_transfer(1, w);
  const cplx t5 = na.vco_transfer(-5, w);
  EXPECT_NEAR(std::abs(t1 - t5), 0.0, 1e-14);
  EXPECT_NEAR(std::abs(t1 + m.baseband_transfer(j * w)), 0.0, 1e-14);
}

TEST(Noise, FoldedVcoPsdExceedsUnfoldedTerm) {
  const SamplingPllModel m = make_model(0.25);
  const NoiseAnalysis na(m, 12);
  const PowerLawPsd psd{0.0, 0.0, 1e-6};  // 1/w^2 (white FM)
  const double w = 0.1 * kW0;
  const double folded = na.output_psd_from_vco(w, psd);
  const double direct = std::norm(na.vco_transfer(0, w)) * psd(w);
  EXPECT_GT(folded, direct);
}

TEST(Noise, ChargePumpTransferScalesWithFilterGain) {
  const SamplingPllModel m = make_model(0.2);
  const NoiseAnalysis na(m);
  const double w = 0.05 * kW0;
  const cplx t0 = na.charge_pump_transfer(0, w);
  // Baseband CP transfer = D_0 (1 - H00); for an in-band frequency
  // 1 - H00 is small, so |t0| << |D_0|.  Current noise sees the
  // impedance Z = H_LF/Icp, not Icp*Z.
  const PllParameters& p = m.parameters();
  const cplx d0 = p.kvco * p.loop_filter_tf()(j * w) / (p.icp * j * w);
  EXPECT_LT(std::abs(t0), 0.2 * std::abs(d0));
}

TEST(Noise, LptvChargePumpTransferReducesToTi) {
  // A padded DC-only ISF must give the TI answer exactly.
  const PllParameters p = make_typical_loop(0.15 * kW0, kW0);
  const SamplingPllModel ti(p);
  const SamplingPllModel padded(
      p, HarmonicCoefficients(CVector{cplx{0.0}, cplx{1.0}, cplx{0.0}}));
  const NoiseAnalysis na_ti(ti);
  const NoiseAnalysis na_pad(padded);
  for (int m : {-2, 0, 1}) {
    const cplx a = na_ti.charge_pump_transfer(m, 0.07 * kW0);
    const cplx b = na_pad.charge_pump_transfer(m, 0.07 * kW0);
    EXPECT_NEAR(std::abs(a - b), 0.0, 1e-12 * std::max(1.0, std::abs(a)))
        << "m = " << m;
  }
}

TEST(Noise, LptvChargePumpTransferSeesIsfRipple) {
  // With a real ISF harmonic, band m = -1 couples through v_{+1}: the
  // transfer must differ from the TI value.
  const PllParameters p = make_typical_loop(0.15 * kW0, kW0);
  const SamplingPllModel ti(p);
  const SamplingPllModel lptv(
      p, HarmonicCoefficients::real_waveform(1.0, {cplx{0.3}}));
  const NoiseAnalysis na_ti(ti);
  const NoiseAnalysis na_lptv(lptv);
  const cplx a = na_ti.charge_pump_transfer(-1, 0.1 * kW0);
  const cplx b = na_lptv.charge_pump_transfer(-1, 0.1 * kW0);
  EXPECT_GT(std::abs(a - b), 0.05 * std::abs(a));
}

TEST(Noise, TotalIsSumOfParts) {
  const SamplingPllModel m = make_model(0.2);
  const NoiseAnalysis na(m, 6);
  const PowerLawPsd ref{1e-14, 0.0, 0.0};
  const PowerLawPsd vco{0.0, 0.0, 1e-8};
  const PowerLawPsd icp{1e-20, 0.0, 0.0};
  const double w = 0.07 * kW0;
  const double total = na.output_psd_total(w, ref, vco, icp);
  const double parts = na.output_psd_from_reference(w, ref) +
                       na.output_psd_from_vco(w, vco) +
                       na.output_psd_from_charge_pump(w, icp);
  EXPECT_NEAR(total, parts, 1e-15 * parts + 1e-30);
}

TEST(Noise, IntegratedRmsOfFlatPsd) {
  const SamplingPllModel m = make_model(0.2);
  const NoiseAnalysis na(m);
  // Integral of a constant S over [a, b]: rms = sqrt(S (b-a)/pi).
  const double s0 = 4.0;
  const double rms = na.integrated_rms([s0](double) { return s0; }, 1.0,
                                       11.0, 2000);
  EXPECT_NEAR(rms, std::sqrt(s0 * 10.0 / std::numbers::pi), 1e-3);
}

TEST(Noise, ValidatesConstruction) {
  const SamplingPllModel m = make_model(0.2);
  // fold_harmonics = 0 is a valid (unfolded) analysis; only negative
  // counts are rejected.
  EXPECT_NO_THROW(NoiseAnalysis(m, 0));
  EXPECT_THROW(NoiseAnalysis(m, -1), std::invalid_argument);
  EXPECT_THROW(NoiseAnalysis(m, -16), std::invalid_argument);
}

TEST(Noise, ZeroFoldKeepsOnlyBasebandTerm) {
  const SamplingPllModel m = make_model(0.2);
  const NoiseAnalysis na(m, 0);
  const PowerLawPsd vco{0.0, 0.0, 1e-8};
  const double w = 0.07 * kW0;
  const cplx h00 = m.baseband_transfer(j * w);
  EXPECT_NEAR(na.output_psd_from_vco(w, vco),
              std::norm(1.0 - h00) * vco(w),
              1e-12 * std::norm(1.0 - h00) * vco(w));
}

TEST(Noise, GridApisValidateInputs) {
  const SamplingPllModel m = make_model(0.2);
  const NoiseAnalysis na(m, 4);
  const PowerLawPsd psd{1e-14, 0.0, 0.0};
  const std::vector<double> empty;
  EXPECT_THROW(na.output_psd_grid(empty, psd, psd, psd),
               std::invalid_argument);
  EXPECT_THROW(na.integrated_jitter(1.0, 10.0, psd, psd, psd, 1),
               std::invalid_argument);
}

TEST(Noise, GridMatchesPointwisePerSource) {
  const PowerLawPsd ref{1e-14, 1e-13, 0.0};
  const PowerLawPsd vco{0.0, 0.0, 1e-8};
  const PowerLawPsd icp{1e-20, 1e-21, 0.0};
  std::vector<double> w;
  for (int i = 0; i < 60; ++i) {
    w.push_back((0.01 + 0.013 * i) * kW0);
  }
  // A DC-only ISF (one fused charge-pump tap) and an LPTV one (the tap
  // window).
  const SamplingPllModel lptv(
      make_typical_loop(0.15 * kW0, kW0),
      HarmonicCoefficients::real_waveform(1.0, {cplx{0.2, -0.05}}));
  for (const SamplingPllModel& m : {make_model(0.2), lptv}) {
    const NoiseAnalysis na(m, 8);
    // One source at a time: the other two are silent.
    const PowerLawPsd none{};
    const auto g_ref = na.output_psd_grid(w, ref, none, none);
    const auto g_vco = na.output_psd_grid(w, none, vco, none);
    const auto g_icp = na.output_psd_grid(w, none, none, icp);
    ASSERT_EQ(g_ref.size(), w.size());
    for (std::size_t i = 0; i < w.size(); ++i) {
      const double p_ref = na.output_psd_from_reference(w[i], ref);
      const double p_vco = na.output_psd_from_vco(w[i], vco);
      const double p_icp = na.output_psd_from_charge_pump(w[i], icp);
      EXPECT_NEAR(g_ref[i], p_ref, 1e-10 * p_ref) << "i=" << i;
      EXPECT_NEAR(g_vco[i], p_vco, 1e-10 * p_vco) << "i=" << i;
      EXPECT_NEAR(g_icp[i], p_icp, 1e-10 * p_icp) << "i=" << i;
    }
  }
}

TEST(Noise, TotalGridMatchesPointwiseTotal) {
  const SamplingPllModel m = make_model(0.25);
  const NoiseAnalysis na(m, 16);
  const PowerLawPsd ref{1e-14, 0.0, 0.0};
  const PowerLawPsd vco{0.0, 0.0, 1e-8};
  const PowerLawPsd icp{1e-20, 0.0, 0.0};
  std::vector<double> w;
  for (int i = 0; i < 40; ++i) {
    // Spans fractions of w0 up past the first harmonics, including
    // points whose folds land near reference multiples.
    w.push_back((0.02 + 0.09 * i) * kW0);
  }
  // The noise skirts under the first three reference spurs, k w0 +
  // offset, and the spurs themselves: at k w0 a fold band lands exactly
  // on DC, and the skipped DC lane must leave the pointwise sum.
  for (int k = 1; k <= 3; ++k) {
    for (const double off : {-0.1, -0.03, 0.0, 0.03, 0.1}) {
      w.push_back(k * kW0 + off * kW0);
    }
  }
  const auto grid = na.output_psd_grid(w, ref, vco, icp);
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double want = na.output_psd_total(w[i], ref, vco, icp);
    EXPECT_NEAR(grid[i], want, 1e-10 * want) << "i=" << i;
  }
}

TEST(Noise, GridRedoesOverflowedImpedanceScalingSafe) {
  // At w0 = 2 pi 1e100 the filter coefficients reach 1e100, so on every
  // fold band |N(jx)|^2 and |D(jx)|^2 both overflow and their quotient
  // is inf/inf.  The grid must redo those lanes with the scaling-safe
  // evaluator and land on the pointwise fold.
  const double w0 = 2.0 * std::numbers::pi * 1e100;
  const SamplingPllModel m(make_typical_loop(0.1 * w0, w0));
  const NoiseAnalysis na(m, 2);
  const PowerLawPsd icp{1e-20, 1e-21, 0.0};
  const RationalFunction& hlf = m.loop_filter_tf();
  const std::vector<double> w{0.05 * w0, 0.2 * w0, 0.45 * w0};
  const auto grid = na.output_psd_grid(w, {}, {}, icp);
  ASSERT_EQ(grid.size(), w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    for (int k = -2; k <= 2; ++k) {
      const cplx s{0.0, w[i] + k * w0};
      ASSERT_TRUE(std::isinf(std::norm(hlf.num()(s)))) << "i=" << i;
      ASSERT_TRUE(std::isinf(std::norm(hlf.den()(s)))) << "i=" << i;
    }
    const double want = na.output_psd_from_charge_pump(w[i], icp);
    ASSERT_TRUE(std::isfinite(want) && want > 0.0) << "i=" << i;
    EXPECT_NEAR(grid[i], want, 1e-10 * want) << "i=" << i;
  }
}

TEST(Noise, IntegratedJitterMatchesIntegratedRmsOfTotal) {
  const SamplingPllModel m = make_model(0.2);
  const NoiseAnalysis na(m, 6);
  const PowerLawPsd ref{1e-14, 0.0, 0.0};
  const PowerLawPsd vco{0.0, 0.0, 1e-8};
  const PowerLawPsd icp{1e-20, 0.0, 0.0};
  const double w_lo = 0.01 * kW0;
  const double w_hi = 0.45 * kW0;
  const double batched =
      na.integrated_jitter(w_lo, w_hi, ref, vco, icp, 200);
  const double pointwise = na.integrated_rms(
      [&](double w) { return na.output_psd_total(w, ref, vco, icp); },
      w_lo, w_hi, 200);
  EXPECT_NEAR(batched, pointwise, 1e-9 * pointwise);
}

}  // namespace
}  // namespace htmpll
