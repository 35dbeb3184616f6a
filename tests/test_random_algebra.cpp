// Randomized algebraic identities across the math substrate: each TEST_P
// runs a batch of trials with seeded RNGs, exercising the polynomial /
// rational / matrix layers on inputs no hand-written case would pick.
#include <random>

#include <gtest/gtest.h>

#include "htmpll/linalg/expm.hpp"
#include "htmpll/linalg/lu.hpp"
#include "htmpll/lti/partial_fractions.hpp"
#include "htmpll/lti/rational.hpp"

namespace htmpll {
namespace {

Polynomial random_poly(std::mt19937& rng, int max_degree) {
  std::uniform_int_distribution<int> deg(0, max_degree);
  std::uniform_real_distribution<double> c(-2.0, 2.0);
  CVector coeffs(static_cast<std::size_t>(deg(rng)) + 1);
  for (cplx& v : coeffs) v = cplx{c(rng), c(rng)};
  if (coeffs.back() == cplx{0.0}) coeffs.back() = cplx{1.0};
  return Polynomial(coeffs);
}

cplx random_point(std::mt19937& rng) {
  std::uniform_real_distribution<double> c(-2.0, 2.0);
  return cplx{c(rng), c(rng)};
}

class RandomAlgebra : public ::testing::TestWithParam<unsigned> {};

TEST_P(RandomAlgebra, PolynomialRingAxioms) {
  std::mt19937 rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const Polynomial a = random_poly(rng, 6);
    const Polynomial b = random_poly(rng, 6);
    const Polynomial c = random_poly(rng, 6);
    const cplx s = random_point(rng);
    // Distributivity and associativity at a random evaluation point.
    const cplx lhs = ((a + b) * c)(s);
    const cplx rhs = (a * c + b * c)(s);
    EXPECT_NEAR(std::abs(lhs - rhs), 0.0,
                1e-9 * std::max(1.0, std::abs(lhs)));
    const cplx lhs2 = ((a * b) * c)(s);
    const cplx rhs2 = (a * (b * c))(s);
    EXPECT_NEAR(std::abs(lhs2 - rhs2), 0.0,
                1e-9 * std::max(1.0, std::abs(lhs2)));
  }
}

TEST_P(RandomAlgebra, DivmodReconstruction) {
  std::mt19937 rng(GetParam() + 1000u);
  for (int trial = 0; trial < 8; ++trial) {
    const Polynomial n = random_poly(rng, 8);
    const Polynomial d = random_poly(rng, 4);
    if (d.is_zero()) continue;
    const auto [q, r] = n.divmod(d);
    const cplx s = random_point(rng);
    const cplx back = (q * d + r)(s);
    EXPECT_NEAR(std::abs(back - n(s)), 0.0,
                1e-8 * std::max(1.0, std::abs(n(s))));
    if (!q.is_zero() && d.degree() > 0) {
      EXPECT_LT(r.degree(), d.degree());
    }
  }
}

TEST_P(RandomAlgebra, DerivativeOfProductRule) {
  std::mt19937 rng(GetParam() + 2000u);
  for (int trial = 0; trial < 8; ++trial) {
    const Polynomial a = random_poly(rng, 5);
    const Polynomial b = random_poly(rng, 5);
    const Polynomial lhs = (a * b).derivative();
    const Polynomial rhs = a.derivative() * b + a * b.derivative();
    EXPECT_TRUE(lhs.approx_equal(rhs, 1e-9));
  }
}

TEST_P(RandomAlgebra, ShiftComposesWithScale) {
  std::mt19937 rng(GetParam() + 3000u);
  for (int trial = 0; trial < 6; ++trial) {
    const Polynomial p = random_poly(rng, 6);
    const cplx shift = random_point(rng);
    const cplx alpha = random_point(rng) + cplx{2.5, 0.0};  // nonzero
    // p(alpha s + shift) built two ways.
    const Polynomial way1 = p.shifted_argument(shift).scaled_argument(alpha);
    const cplx s = random_point(rng);
    EXPECT_NEAR(std::abs(way1(s) - p(alpha * s + shift)), 0.0,
                1e-7 * std::max(1.0, std::abs(p(alpha * s + shift))));
  }
}

TEST_P(RandomAlgebra, RationalFieldOperations) {
  std::mt19937 rng(GetParam() + 4000u);
  for (int trial = 0; trial < 6; ++trial) {
    const RationalFunction f(random_poly(rng, 4), random_poly(rng, 4));
    const RationalFunction g(random_poly(rng, 4), random_poly(rng, 4));
    if (f.is_zero() || g.is_zero()) continue;
    const cplx s = random_point(rng);
    // (f/g)*g == f at a random point (avoiding poles with overwhelming
    // probability).
    const cplx lhs = ((f / g) * g)(s);
    const cplx rhs = f(s);
    if (!std::isfinite(std::abs(lhs)) || !std::isfinite(std::abs(rhs))) {
      continue;
    }
    EXPECT_NEAR(std::abs(lhs - rhs), 0.0,
                1e-6 * std::max(1.0, std::abs(rhs)));
  }
}

TEST_P(RandomAlgebra, PartialFractionsReproduceRandomStrictlyProper) {
  std::mt19937 rng(GetParam() + 5000u);
  std::uniform_real_distribution<double> re(-3.0, -0.3);
  std::uniform_real_distribution<double> im(-2.0, 2.0);
  for (int trial = 0; trial < 5; ++trial) {
    CVector poles;
    for (int i = 0; i < 4; ++i) poles.push_back(cplx{re(rng), im(rng)});
    bool clustered = false;
    for (int a = 0; a < 4; ++a) {
      for (int b = a + 1; b < 4; ++b) {
        if (std::abs(poles[a] - poles[b]) < 0.05) clustered = true;
      }
    }
    if (clustered) continue;
    const RationalFunction f(random_poly(rng, 3),
                             Polynomial::from_roots(poles));
    const PartialFractions pf(f);
    const cplx s = random_point(rng) + cplx{3.0, 0.0};  // away from poles
    EXPECT_NEAR(std::abs(pf(s) - f(s)), 0.0,
                1e-6 * std::max(1.0, std::abs(f(s))));
  }
}

TEST_P(RandomAlgebra, ExpmInverseIsExpOfNegative) {
  std::mt19937 rng(GetParam() + 6000u);
  std::uniform_real_distribution<double> c(-1.0, 1.0);
  for (int trial = 0; trial < 4; ++trial) {
    RMatrix a(3, 3);
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j2 = 0; j2 < 3; ++j2) a(i, j2) = c(rng);
    }
    const RMatrix prod = expm(a) * expm(a * -1.0);
    for (std::size_t i = 0; i < 3; ++i) {
      for (std::size_t j2 = 0; j2 < 3; ++j2) {
        EXPECT_NEAR(prod(i, j2), i == j2 ? 1.0 : 0.0, 1e-10);
      }
    }
  }
}

TEST_P(RandomAlgebra, DeterminantIsMultiplicative) {
  std::mt19937 rng(GetParam() + 7000u);
  std::uniform_real_distribution<double> c(-1.0, 1.0);
  for (int trial = 0; trial < 4; ++trial) {
    CMatrix a(4, 4), b(4, 4);
    for (std::size_t i = 0; i < 4; ++i) {
      for (std::size_t j2 = 0; j2 < 4; ++j2) {
        a(i, j2) = cplx{c(rng), c(rng)};
        b(i, j2) = cplx{c(rng), c(rng)};
      }
      a(i, i) += 2.0;
      b(i, i) += 2.0;
    }
    const cplx da = CLu(a).determinant();
    const cplx db = CLu(b).determinant();
    const cplx dab = CLu(a * b).determinant();
    EXPECT_NEAR(std::abs(dab - da * db), 0.0, 1e-8 * std::abs(dab));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomAlgebra,
                         ::testing::Values(11u, 23u, 37u, 59u, 83u));

}  // namespace
}  // namespace htmpll
