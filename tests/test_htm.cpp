#include <cmath>
#include <numbers>

#include <gtest/gtest.h>

#include "htmpll/core/builders.hpp"
#include "htmpll/core/htm.hpp"
#include "htmpll/linalg/lu.hpp"
#include "htmpll/lti/loop_filter.hpp"

namespace htmpll {
namespace {

const cplx j{0.0, 1.0};
constexpr double kW0 = 10.0;

TEST(Htm, IndexingConvention) {
  Htm h(2, kW0, j);
  EXPECT_EQ(h.dim(), 5u);
  EXPECT_EQ(h.index(-2), 0u);
  EXPECT_EQ(h.index(0), 2u);
  EXPECT_EQ(h.index(2), 4u);
  h.at(-1, 1) = cplx{3.0};
  EXPECT_EQ(h.matrix()(1, 3), cplx(3.0));
  EXPECT_THROW(h.at(3, 0), std::invalid_argument);
}

TEST(Htm, IdentityAndAlgebra) {
  const Htm i = Htm::identity(1, kW0, j);
  Htm a(1, kW0, j);
  a.at(0, 0) = 2.0;
  a.at(1, -1) = j;
  const Htm sum = a + i;
  EXPECT_EQ(sum.at(0, 0), cplx(3.0));
  EXPECT_EQ(sum.at(1, -1), j);
  const Htm prod = a * i;
  EXPECT_EQ(prod.at(1, -1), j);
  const Htm diff = sum - i;
  EXPECT_EQ(diff.at(0, 0), cplx(2.0));
}

TEST(Htm, IncompatibleOperandsThrow) {
  const Htm a(1, kW0, j);
  const Htm b(2, kW0, j);
  const Htm c(1, kW0 * 2.0, j);
  const Htm d(1, kW0, 2.0 * j);
  EXPECT_THROW(a + b, std::invalid_argument);
  EXPECT_THROW(a * c, std::invalid_argument);
  EXPECT_THROW(a * d, std::invalid_argument);
}

TEST(Htm, LtiBuilderIsDiagonalWithShiftedArguments) {
  // eq. 12: H_{m,m}(s) = H(s + j m w0).
  const RationalFunction h(Polynomial::constant(1.0),
                           Polynomial::from_real({1.0, 1.0}));
  const cplx s{0.5, 2.0};
  const Htm m = lti_htm(h, 2, kW0, s);
  for (int n = -2; n <= 2; ++n) {
    for (int k = -2; k <= 2; ++k) {
      if (n == k) {
        const cplx expected = h(s + cplx{0.0, n * kW0});
        EXPECT_NEAR(std::abs(m.at(n, k) - expected), 0.0, 1e-14);
      } else {
        EXPECT_EQ(m.at(n, k), cplx(0.0));
      }
    }
  }
}

TEST(Htm, MultiplierBuilderIsToeplitz) {
  // eq. 13: H_{n,m} = P_{n-m}.
  const HarmonicCoefficients p =
      HarmonicCoefficients::real_waveform(1.0, {cplx{0.25, -0.1}});
  const Htm m = multiplier_htm(p, 2, kW0, j);
  for (int n = -2; n <= 2; ++n) {
    for (int k = -2; k <= 2; ++k) {
      EXPECT_EQ(m.at(n, k), p[n - k]);
    }
  }
  EXPECT_EQ(m.at(0, 0), cplx(1.0));
  EXPECT_EQ(m.at(1, 0), cplx(0.25, -0.1));
  EXPECT_EQ(m.at(0, 1), cplx(0.25, 0.1));  // conjugate symmetry
}

TEST(Htm, SeriesOfMultipliersIsProductWaveform) {
  // Multiplying by p(t) then q(t) equals multiplying by q(t)p(t); with
  // truncation, interior elements must match the convolved coefficients.
  const HarmonicCoefficients p =
      HarmonicCoefficients::real_waveform(1.0, {cplx{0.3}});
  const HarmonicCoefficients q =
      HarmonicCoefficients::real_waveform(2.0, {cplx{0.0, 0.1}});
  const int big = 6;
  const Htm hp = multiplier_htm(p, big, kW0, j);
  const Htm hq = multiplier_htm(q, big, kW0, j);
  const Htm series = hq * hp;
  // Convolution of coefficient sets.
  CVector conv(5, cplx{0.0});  // offsets -2..2
  for (int a = -1; a <= 1; ++a) {
    for (int b = -1; b <= 1; ++b) {
      conv[static_cast<std::size_t>(a + b + 2)] += q[a] * p[b];
    }
  }
  for (int d = -2; d <= 2; ++d) {
    EXPECT_NEAR(std::abs(series.at(d, 0) -
                         conv[static_cast<std::size_t>(d + 2)]),
                0.0, 1e-14)
        << "offset " << d;
  }
}

TEST(Htm, SamplingPfdIsRankOneAllOnes) {
  // eq. 19/20: every entry equals w0/2pi.
  const Htm pfd = sampling_pfd_htm(3, kW0, j);
  const cplx expected{kW0 / (2.0 * std::numbers::pi)};
  for (int n = -3; n <= 3; ++n) {
    for (int m = -3; m <= 3; ++m) {
      EXPECT_EQ(pfd.at(n, m), expected);
    }
  }
}

TEST(Htm, VcoBuilderTimeInvariantReducesToIntegrator) {
  const HarmonicCoefficients dc{cplx{2.0}};
  const cplx s{0.1, 3.0};
  const Htm v = vco_htm(dc, 2, kW0, s);
  for (int n = -2; n <= 2; ++n) {
    const cplx expected = 2.0 / (s + cplx{0.0, n * kW0});
    EXPECT_NEAR(std::abs(v.at(n, n) - expected), 0.0, 1e-14);
    EXPECT_EQ(v.at(n, (n + 1 <= 2) ? n + 1 : n - 1), cplx(0.0));
  }
}

TEST(Htm, VcoBuilderEq25Structure) {
  // H_{n,m} = v_{n-m} / (s + j n w0).
  const HarmonicCoefficients isf =
      HarmonicCoefficients::real_waveform(1.0, {cplx{0.2, 0.1}});
  const cplx s{0.0, 1.0};
  const Htm v = vco_htm(isf, 2, kW0, s);
  for (int n = -2; n <= 2; ++n) {
    for (int m = -2; m <= 2; ++m) {
      const cplx expected = isf[n - m] / (s + cplx{0.0, n * kW0});
      EXPECT_NEAR(std::abs(v.at(n, m) - expected), 0.0, 1e-14);
    }
  }
}

TEST(Htm, VcoBuilderRejectsEvaluationOnPole) {
  const HarmonicCoefficients dc{cplx{1.0}};
  EXPECT_THROW(vco_htm(dc, 2, kW0, -j * kW0), std::invalid_argument);
}

TEST(Htm, RankOneClosedFormMatchesDenseSolve) {
  // Random-ish rank-one G = v l^T; compare eq. 34 against LU solve.
  const int k = 3;
  const Htm proto(k, kW0, j);
  CVector v(proto.dim());
  for (std::size_t i = 0; i < v.size(); ++i) {
    v[i] = cplx{0.1 * static_cast<double>(i + 1),
                -0.05 * static_cast<double>(i)};
  }
  Htm g(k, kW0, j);
  for (std::size_t r = 0; r < g.dim(); ++r) {
    for (std::size_t c = 0; c < g.dim(); ++c) g.matrix()(r, c) = v[r];
  }
  const Htm closed = closed_loop_rank_one(v, proto);
  const Htm dense = closed_loop_dense(g);
  EXPECT_LT((closed.matrix() - dense.matrix()).max_abs(), 1e-12);
}

TEST(Htm, DenseClosedLoopSolvesTheFeedbackEquation) {
  // A full (not rank-one) G: H = (I + G)^{-1} G must satisfy
  // (I + G) H = G and keep G's truncation, w0 and s.
  const int k = 4;
  const cplx s{0.3, 1.7};
  Htm g(k, kW0, s);
  for (std::size_t r = 0; r < g.dim(); ++r) {
    for (std::size_t c = 0; c < g.dim(); ++c) {
      const double x = static_cast<double>(r) + 0.5;
      const double y = static_cast<double>(c) + 1.0;
      g.matrix()(r, c) = cplx{std::sin(1.3 * x * y), 0.4 * std::cos(x - y)} /
                         (r == c ? 1.0 : x + y);
    }
  }
  const Htm h = closed_loop_dense(g);
  EXPECT_EQ(h.truncation(), k);
  EXPECT_EQ(h.w0(), kW0);
  EXPECT_EQ(h.s(), s);
  const CMatrix residual =
      (CMatrix::identity(g.dim()) + g.matrix()) * h.matrix() - g.matrix();
  EXPECT_LT(residual.max_abs(), 1e-12 * g.max_abs());
}

TEST(Htm, ApplyStackedVector) {
  Htm h = Htm::identity(1, kW0, j);
  h.at(0, 0) = 2.0;
  const CVector u{cplx{1.0}, cplx{1.0}, cplx{1.0}};
  const CVector y = h.apply(u);
  EXPECT_EQ(y[1], cplx(2.0));
  EXPECT_EQ(y[0], cplx(1.0));
  EXPECT_THROW(h.apply(CVector{cplx{1.0}}), std::invalid_argument);
}

TEST(HarmonicCoefficients, AccessorsAndRealWaveform) {
  const HarmonicCoefficients c =
      HarmonicCoefficients::real_waveform(0.5, {cplx{1.0, 2.0}, cplx{3.0}});
  EXPECT_EQ(c.max_harmonic(), 2);
  EXPECT_EQ(c[0], cplx(0.5));
  EXPECT_EQ(c[1], cplx(1.0, 2.0));
  EXPECT_EQ(c[-1], cplx(1.0, -2.0));
  EXPECT_EQ(c[2], cplx(3.0));
  EXPECT_EQ(c[5], cplx(0.0));
  EXPECT_FALSE(c.is_dc_only());
  EXPECT_TRUE(HarmonicCoefficients(cplx{1.0}).is_dc_only());
  EXPECT_THROW(HarmonicCoefficients(CVector{1.0, 2.0}),
               std::invalid_argument);
}

}  // namespace
}  // namespace htmpll
