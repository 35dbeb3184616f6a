#include <cmath>
#include <cstdint>
#include <numbers>

#include <gtest/gtest.h>

#include "htmpll/fracn/fracn_noise.hpp"
#include "htmpll/fracn/sigma_delta.hpp"
#include "htmpll/util/grid.hpp"

namespace htmpll {
namespace {

constexpr double kW0 = 2.0 * std::numbers::pi;  // T = 1

TEST(Accumulator, MeanAndRange) {
  AccumulatorModulator acc(3, 8);  // alpha = 3/8
  int sum = 0;
  for (int n = 0; n < 8000; ++n) {
    const int y = acc.next();
    EXPECT_TRUE(y == 0 || y == 1);
    sum += y;
  }
  EXPECT_NEAR(static_cast<double>(sum) / 8000.0, acc.mean(), 1e-3);
}

TEST(Accumulator, PeriodicForRationalWord) {
  // word/modulus = 1/4: carries exactly every 4th step.
  AccumulatorModulator acc(1, 4);
  for (int rep = 0; rep < 5; ++rep) {
    EXPECT_EQ(acc.next(), 0);
    EXPECT_EQ(acc.next(), 0);
    EXPECT_EQ(acc.next(), 0);
    EXPECT_EQ(acc.next(), 1);
  }
}

TEST(Accumulator, CarriesPastTwoToTheSixtyThree) {
  // With a modulus above 2^63, acc + word overflows 64 bits: adding
  // before comparing lost every carry and both modulators averaged 0.
  const std::uint64_t modulus = ~std::uint64_t{0};  // 2^64 - 1
  const std::uint64_t word = std::uint64_t{1} << 63;
  AccumulatorModulator acc(word, modulus);
  Mash111 mash(word, modulus);
  const int steps = 1 << 16;
  double acc_sum = 0.0, mash_sum = 0.0;
  for (int n = 0; n < steps; ++n) {
    acc_sum += acc.next();
    mash_sum += mash.next();
  }
  EXPECT_NEAR(acc_sum / steps, acc.mean(), 1e-3);
  EXPECT_NEAR(mash_sum / steps, mash.mean(), 1e-3);
}

TEST(Mash, MeanMatchesWord) {
  Mash111 mash(104857u, 1u << 20);  // ~0.1 with odd numerator
  const auto seq = mash.sequence(1u << 16);
  double sum = 0.0;
  for (int y : seq) sum += y;
  EXPECT_NEAR(sum / static_cast<double>(seq.size()), mash.mean(), 2e-4);
}

TEST(Mash, OutputRangeBounded) {
  Mash111 mash(777777u, 1u << 20);
  for (int n = 0; n < 200000; ++n) {
    const int y = mash.next();
    EXPECT_GE(y, -3);
    EXPECT_LE(y, 4);
  }
}

TEST(Mash, ValidatesArguments) {
  EXPECT_THROW(Mash111(5, 0), std::invalid_argument);
  EXPECT_THROW(Mash111(8, 8), std::invalid_argument);
  EXPECT_THROW(AccumulatorModulator(9, 8), std::invalid_argument);
}

TEST(Mash, PhaseSequenceIsBoundedByShaping) {
  // (1-z^-1)^3 shaping integrates once in the phase accumulation: the
  // phase error sequence stays bounded (second-difference of a bounded
  // accumulator state), unlike a first-order modulator's ramping error.
  Mash111 mash(104857u, 1u << 20);
  const double t_vco = 0.01;
  const auto e = divider_phase_sequence(mash, t_vco, 100000);
  double emax = 0.0;
  for (double v : e) emax = std::max(emax, std::abs(v));
  EXPECT_LT(emax, 10.0 * t_vco);  // a few VCO periods at most
}

TEST(Mash, PeriodogramFollowsShapingLaw) {
  // The measured PSD of the accumulated phase error must follow the
  // |2 sin(w T/2)|^(2(m-1)) law within ~2 dB over mid frequencies.
  Mash111 mash(104857u, 1u << 20);
  const double t_vco = 1.0 / 64.0;  // N = 64
  const auto e = divider_phase_sequence(mash, t_vco, 1u << 16);
  const std::vector<double> w = logspace(0.05 * kW0, 0.45 * kW0, 7);
  const auto measured = averaged_periodogram(e, w, 1.0, 32);
  const auto theory = mash_phase_psd(w, t_vco, 1.0, 3);
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double ratio_db = 10.0 * std::log10(measured[i] / theory[i]);
    EXPECT_LT(std::abs(ratio_db), 2.0)
        << "w/w0 = " << w[i] / kW0 << " measured " << measured[i]
        << " theory " << theory[i];
  }
}

TEST(Mash, ShapingSlopeIsFortyDbPerDecade) {
  // Phase error: (m-1) = 2 differentiations -> +40 dB/dec.
  const std::vector<double> w{0.01 * kW0, 0.1 * kW0};
  const auto s = mash_phase_psd(w, 0.01, 1.0, 3);
  const double slope_db =
      10.0 * std::log10(s[1] / s[0]);  // per decade
  EXPECT_NEAR(slope_db, 40.0, 1.0);
}

TEST(FracnNoise, OutputPsdRisesTowardBandEdgeForMash3) {
  // MASH-3 noise rises +40 dB/dec (in phase) while this loop's H_00
  // rolls off only -20..-40 dB/dec beyond crossover: the output
  // quantization noise keeps RISING toward w0/2 -- the textbook reason
  // fractional-N loops need narrow bandwidth or extra filter order.
  const SamplingPllModel model(make_typical_loop(0.05 * kW0, kW0));
  const double t_vco = 1.0 / 100.0;
  const double low = fracn_output_psd(model, 0.003 * kW0, t_vco);
  const double mid = fracn_output_psd(model, 0.05 * kW0, t_vco);
  const double high = fracn_output_psd(model, 0.45 * kW0, t_vco);
  EXPECT_GT(mid, low);
  EXPECT_GT(high, mid);
}

TEST(FracnNoise, ExtraFilterPoleTamesTheBandEdge) {
  // Adding a strong extra pole (steeper high-frequency rolloff) must
  // cut the band-edge quantization noise while leaving the in-band
  // response essentially unchanged.
  const PllParameters p = make_typical_loop(0.05 * kW0, kW0);
  const SamplingPllModel plain(p);
  const RationalFunction extra_pole(
      Polynomial::constant(0.2 * kW0),
      Polynomial::from_real({0.2 * kW0, 1.0}));
  const SamplingPllModel filtered(p, HarmonicCoefficients(cplx{1.0}), {},
                                  extra_pole);
  const double t_vco = 1.0 / 100.0;
  const double edge_plain = fracn_output_psd(plain, 0.45 * kW0, t_vco);
  const double edge_filt = fracn_output_psd(filtered, 0.45 * kW0, t_vco);
  EXPECT_LT(edge_filt, 0.3 * edge_plain);
  const double in_plain = fracn_output_psd(plain, 0.005 * kW0, t_vco);
  const double in_filt = fracn_output_psd(filtered, 0.005 * kW0, t_vco);
  EXPECT_NEAR(in_filt / in_plain, 1.0, 0.1);
}

TEST(FracnNoise, NarrowerLoopIntegratesLessNoise) {
  const double t_vco = 1.0 / 100.0;
  const SamplingPllModel narrow(make_typical_loop(0.02 * kW0, kW0));
  const SamplingPllModel wide(make_typical_loop(0.15 * kW0, kW0));
  const double rms_narrow =
      fracn_output_rms(narrow, t_vco, 1e-3 * kW0, 0.49 * kW0);
  const double rms_wide =
      fracn_output_rms(wide, t_vco, 1e-3 * kW0, 0.49 * kW0);
  EXPECT_LT(rms_narrow, 0.5 * rms_wide);
}

TEST(FracnNoise, ScalesWithVcoPeriod) {
  const SamplingPllModel model(make_typical_loop(0.1 * kW0, kW0));
  const double a = fracn_output_psd(model, 0.1 * kW0, 0.01);
  const double b = fracn_output_psd(model, 0.1 * kW0, 0.02);
  EXPECT_NEAR(b / a, 4.0, 1e-9);  // t_vco^2 scaling
}

}  // namespace
}  // namespace htmpll
