#include <cmath>
#include <limits>
#include <numbers>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "htmpll/core/sampling_pll.hpp"

namespace htmpll {
namespace {

const cplx j{0.0, 1.0};
constexpr double kW0 = 2.0 * std::numbers::pi;  // T = 1

SamplingPllModel make_model(double ratio) {
  return SamplingPllModel(make_typical_loop(ratio * kW0, kW0));
}

TEST(SamplingPll, LambdaEqualsAliasingSumOfA) {
  // eq. 37 for a time-invariant VCO.
  const SamplingPllModel m = make_model(0.3);
  const AliasingSum ref(m.open_loop_gain(), kW0);
  for (double f : {0.07, 0.21, 0.44}) {
    const cplx s = j * (f * kW0);
    EXPECT_NEAR(std::abs(m.lambda(s) - ref.exact(s)) /
                    std::abs(ref.exact(s)),
                0.0, 1e-10)
        << "f = " << f;
  }
}

TEST(SamplingPll, VtildeElementsAreShiftedA) {
  // eq. 29 with TI VCO: V~_n(s) = A(s + j n w0).
  const SamplingPllModel m = make_model(0.2);
  const RationalFunction& a = m.open_loop_gain();
  const cplx s = j * (0.15 * kW0);
  for (int n = -4; n <= 4; ++n) {
    const cplx expected = a(s + cplx{0.0, n * kW0});
    EXPECT_NEAR(std::abs(m.vtilde_element(n, s) - expected) /
                    std::abs(expected),
                0.0, 1e-10)
        << "n = " << n;
  }
  const CVector v = m.vtilde(s, 3);
  ASSERT_EQ(v.size(), 7u);
  EXPECT_EQ(v[3], m.vtilde_element(0, s));
}

TEST(SamplingPll, ChannelTableIterationMatchesFullHarmonicWalk) {
  // Pins the channels_ inner-loop form: iterating the precomputed
  // non-zero (k, v_k) table must be bit-identical to walking the full
  // harmonic range and re-deriving v_k = kvco * isf_k with a zero test
  // per k -- the formula the inner loops used before the table existed.
  CVector c(5);
  c[0] = cplx{0.1, 0.0};    // k = -2
  c[1] = cplx{0.0, 0.0};    // k = -1: zero harmonic exercises the skip
  c[2] = cplx{1.0, 0.0};    // k = 0
  c[3] = cplx{0.0, 0.0};    // k = +1
  c[4] = cplx{0.1, -0.05};  // k = +2
  const HarmonicCoefficients isf(c);
  const PllParameters p = make_typical_loop(0.08 * kW0, kW0);
  for (PfdShape shape : {PfdShape::kImpulse, PfdShape::kZeroOrderHold}) {
    SamplingPllOptions opts;
    opts.pfd_shape = shape;
    const SamplingPllModel m(p, isf, opts);
    const double t = m.parameters().period();
    const RationalFunction& hlf = m.loop_filter_tf();
    for (int n : {-2, -1, 0, 1, 3}) {
      for (const cplx s : {cplx{0.01 * kW0, 0.2 * kW0},
                           cplx{-0.05 * kW0, 0.37 * kW0}}) {
        cplx acc{0.0};
        for (int k = -isf.max_harmonic(); k <= isf.max_harmonic(); ++k) {
          const cplx v_k = m.parameters().kvco * isf[k];
          if (v_k == cplx{0.0}) continue;
          const cplx sm = s + cplx{0.0, static_cast<double>(n - k) * kW0};
          const cplx shape_factor = shape == PfdShape::kImpulse
                                        ? cplx{1.0}
                                        : 1.0 / (sm * t);
          acc += v_k * (hlf(sm) * shape_factor);
        }
        const cplx prefactor = shape == PfdShape::kImpulse
                                   ? cplx{1.0}
                                   : 1.0 - std::exp(-s * t);
        const cplx sn = s + cplx{0.0, static_cast<double>(n) * kW0};
        const cplx expected =
            prefactor * acc * kW0 / (2.0 * std::numbers::pi) / sn;
        const cplx got = m.vtilde_element(n, s);
        EXPECT_EQ(got.real(), expected.real())
            << "n = " << n << " shape " << static_cast<int>(shape);
        EXPECT_EQ(got.imag(), expected.imag())
            << "n = " << n << " shape " << static_cast<int>(shape);
      }
    }
  }
}

TEST(SamplingPll, BasebandTransferIsEq38) {
  const SamplingPllModel m = make_model(0.35);
  const cplx s = j * (0.2 * kW0);
  const cplx a = m.open_loop_gain()(s);
  const cplx expected = a / (1.0 + m.lambda(s));
  EXPECT_NEAR(std::abs(m.baseband_transfer(s) - expected), 0.0,
              1e-12 * std::abs(expected));
}

TEST(SamplingPll, ErrorTransferComplements) {
  const SamplingPllModel m = make_model(0.25);
  const cplx s = j * (0.1 * kW0);
  EXPECT_NEAR(std::abs(m.baseband_transfer(s) +
                       m.baseband_error_transfer(s) - cplx{1.0}),
              0.0, 1e-12);
}

TEST(SamplingPll, LambdaMethodsAgree) {
  const SamplingPllModel m = make_model(0.3);
  const cplx s = j * (0.18 * kW0);
  const cplx exact = m.lambda(s, LambdaMethod::kExact, 0);
  const cplx adaptive = m.lambda(s, LambdaMethod::kAdaptive, 0);
  const cplx truncated = m.lambda(s, LambdaMethod::kTruncated, 4000);
  EXPECT_NEAR(std::abs(adaptive - exact) / std::abs(exact), 0.0, 1e-8);
  // Raw truncation converges like 1/K.
  EXPECT_NEAR(std::abs(truncated - exact) / std::abs(exact), 0.0, 2e-3);
}

TEST(SamplingPll, ApproachesLtiModelForSlowLoop) {
  // The classical approximation is the w_UG/w0 -> 0 limit (paper, after
  // eq. 38).
  const SamplingPllModel m = make_model(0.002);
  for (double f : {0.0005, 0.002, 0.006}) {
    const cplx s = j * (f * kW0);
    const cplx tv = m.baseband_transfer(s);
    const cplx lti = m.lti_baseband_transfer(s);
    EXPECT_NEAR(std::abs(tv - lti) / std::abs(lti), 0.0, 5e-3)
        << "f = " << f;
  }
}

TEST(SamplingPll, DeviatesFromLtiModelForFastLoop) {
  const SamplingPllModel m = make_model(0.25);
  const cplx s = j * (0.35 * kW0);
  const cplx tv = m.baseband_transfer(s);
  const cplx lti = m.lti_baseband_transfer(s);
  EXPECT_GT(std::abs(tv - lti) / std::abs(lti), 0.05);
}

TEST(SamplingPll, OpenLoopHtmIsRankOneColumns) {
  // G = V~ l^T: every column identical (eq. 30).
  const SamplingPllModel m = make_model(0.3);
  const cplx s = j * (0.2 * kW0);
  const Htm g = m.open_loop_htm(s, 4);
  for (int n = -4; n <= 4; ++n) {
    for (int c = -4; c <= 4; ++c) {
      EXPECT_NEAR(std::abs(g.at(n, c) - g.at(n, 0)), 0.0, 1e-14);
    }
  }
}

TEST(SamplingPll, RankOneClosedLoopMatchesDense) {
  // The Sherman-Morrison closed form (eq. 34) against the brute-force
  // (I+G)^{-1} G solve on the same truncated HTM.
  const SamplingPllModel m = make_model(0.4);
  for (double f : {0.1, 0.3}) {
    const cplx s = j * (f * kW0);
    const Htm a = m.closed_loop_htm(s, 6);
    const Htm b = m.closed_loop_htm_dense(s, 6);
    EXPECT_LT((a.matrix() - b.matrix()).max_abs(), 1e-10)
        << "f = " << f;
  }
}

TEST(SamplingPll, ClosedLoopHtmConsistentWithScalarPath) {
  // The (0,0) element of the truncated closed-loop HTM converges to the
  // scalar eq. 38 value as truncation grows.
  const SamplingPllModel m = make_model(0.2);
  const cplx s = j * (0.22 * kW0);
  const cplx scalar = m.baseband_transfer(s);
  double prev = 1e300;
  for (int k : {4, 16, 128}) {
    const Htm cl = m.closed_loop_htm(s, k);
    const double err = std::abs(cl.at(0, 0) - scalar);
    EXPECT_LT(err, prev * 1.05);
    prev = err;
  }
  // Truncated-HTM lambda carries the 1/K aliasing-tail error.
  EXPECT_LT(prev / std::abs(scalar), 3e-2);
}

TEST(SamplingPll, LptvVcoChannelsReduceToTiWhenDcOnly) {
  // A one-harmonic ISF with zero harmonic coefficient must behave as TI.
  const PllParameters p = make_typical_loop(0.3 * kW0, kW0);
  const SamplingPllModel ti(p);
  const SamplingPllModel fake_lptv(
      p, HarmonicCoefficients(CVector{cplx{0.0}, cplx{1.0}, cplx{0.0}}));
  const cplx s = j * (0.2 * kW0);
  EXPECT_NEAR(std::abs(ti.lambda(s) - fake_lptv.lambda(s)), 0.0,
              1e-12 * std::abs(ti.lambda(s)));
}

TEST(SamplingPll, LptvVcoLambdaMatchesHtmTruncation) {
  // With a real ISF harmonic, the scalar channel machinery must agree
  // with summing V~ elements (the HTM row sum) at high truncation.
  const PllParameters p = make_typical_loop(0.2 * kW0, kW0);
  const HarmonicCoefficients isf =
      HarmonicCoefficients::real_waveform(1.0, {cplx{0.2, 0.05}});
  const SamplingPllModel m(p, isf);
  const cplx s = j * (0.17 * kW0);
  const cplx exact = m.lambda(s, LambdaMethod::kExact, 0);
  const cplx truncated = m.lambda(s, LambdaMethod::kTruncated, 3000);
  EXPECT_NEAR(std::abs(truncated - exact) / std::abs(exact), 0.0, 1e-4);
}

TEST(SamplingPll, RejectsBadIsf) {
  const PllParameters p = make_typical_loop(0.3 * kW0, kW0);
  EXPECT_THROW(SamplingPllModel(p, HarmonicCoefficients(cplx{0.0, 1.0})),
               std::invalid_argument);
  EXPECT_THROW(SamplingPllModel(p, HarmonicCoefficients(cplx{0.0})),
               std::invalid_argument);
}

TEST(SamplingPll, RejectsNonFiniteParameters) {
  // Each of these loops used to build a model whose transfers and noise
  // grids read NaN.  At w0 = 2 pi 1e155 the typical loop's Icp overflows
  // to +inf.
  const auto rejection = [](const PllParameters& p) {
    try {
      const SamplingPllModel m(p);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  const double w0 = 2.0 * std::numbers::pi * 1e155;
  const PllParameters huge = make_typical_loop(0.1 * w0, w0);
  ASSERT_TRUE(std::isinf(huge.icp));
  EXPECT_NE(rejection(huge).find("icp must be finite"), std::string::npos)
      << rejection(huge);

  PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  p.icp = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(rejection(p).find("icp must be finite"), std::string::npos)
      << rejection(p);
  p = make_typical_loop(0.1 * kW0, kW0);
  p.kvco = std::numeric_limits<double>::quiet_NaN();
  EXPECT_NE(rejection(p).find("kvco must be finite"), std::string::npos)
      << rejection(p);
}

TEST(SamplingPll, RejectsLoopsOutsideTheCoefficientRange) {
  // make_typical_loop(0.1 w0, w0) is scale-invariant: H00(j 0.05 w0)
  // reads the same at every w0 whose coefficients fit in a double.  From
  // w0 = 2 pi 1e103 the s^1 numerator coefficient of A(s), which grows
  // like w0^3, overflows, and the model read NaN.  From 2 pi 1e125
  // R C1 C2 falls below Polynomial's trim, and the impedance silently
  // lost its pole at -wp: the model read (1.01039, -0.499943).
  const auto at = [](double decade) {
    const double w0 = 2.0 * std::numbers::pi * std::pow(10.0, decade);
    return make_typical_loop(0.1 * w0, w0);
  };
  const auto rejection = [](const PllParameters& p) {
    try {
      const SamplingPllModel m(p);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  const cplx ref = make_model(0.1).baseband_transfer(j * (0.05 * kW0));
  EXPECT_NEAR(ref.real(), 1.0899, 1e-4);
  EXPECT_NEAR(ref.imag(), -0.460132, 1e-6);
  const PllParameters edge = at(100.0);
  const cplx h = SamplingPllModel(edge).baseband_transfer(
      j * (0.05 * edge.w0));
  EXPECT_LT(std::abs(h - ref), 1e-12 * std::abs(ref)) << h;

  for (double decade : {103.0, 110.0, 124.0}) {
    EXPECT_NE(rejection(at(decade)).find("A(s) has a non-finite"),
              std::string::npos)
        << decade << ": " << rejection(at(decade));
  }
  for (double decade : {125.0, 140.0, 154.0}) {
    const PllParameters p = at(decade);
    EXPECT_NE(rejection(p).find("impedance lost a pole"), std::string::npos)
        << decade << ": " << rejection(p);
    EXPECT_THROW(p.filter.impedance(), std::invalid_argument) << decade;
  }
}

TEST(SamplingPll, VtildeRejectsIntegratorPole) {
  const SamplingPllModel m = make_model(0.3);
  EXPECT_THROW(m.vtilde_element(-1, j * kW0), std::invalid_argument);
}

TEST(SamplingPll, RejectsNegativeTruncation) {
  // A negative K would silently open the loop (an empty truncated sum)
  // or wrap a size_t resize.
  const SamplingPllModel m = make_model(0.1);
  const cplx s = j * (0.1 * kW0);
  EXPECT_THROW(m.lambda(s, LambdaMethod::kTruncated, -1),
               std::invalid_argument);
  EXPECT_THROW(m.vtilde(s, -1), std::invalid_argument);
  // K = 0 stays valid: the baseband term alone.
  EXPECT_EQ(m.lambda(s, LambdaMethod::kTruncated, 0), m.vtilde_element(0, s));
}

TEST(SamplingPll, RejectsPoleMultiplicityAboveFour) {
  // The exact lambda sums poles of multiplicity 1..4.  Three extra
  // integrators on the typical loop's double pole at DC make five: the
  // constructor rejects the model, naming the limit, instead of leaving
  // every lambda call to throw.  Two make four, which still evaluates.
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  const HarmonicCoefficients dc(cplx{1.0});
  std::string message;
  try {
    SamplingPllModel(p, dc, {}, RationalFunction::integrator(1.0, 3));
  } catch (const std::invalid_argument& e) {
    message = e.what();
  }
  EXPECT_NE(message.find("multiplicities 1..4"), std::string::npos)
      << message;
  const SamplingPllModel four(p, dc, {}, RationalFunction::integrator(1.0, 2));
  const cplx s = j * (0.2 * kW0);
  const cplx want = four.lambda(s, LambdaMethod::kTruncated, 2000);
  EXPECT_LT(std::abs(four.lambda(s) - want), 1e-9 * std::abs(want));
}

}  // namespace
}  // namespace htmpll
