#include <numbers>

#include <gtest/gtest.h>

#include "htmpll/core/aliasing_sum.hpp"
#include "htmpll/core/symbolic.hpp"
#include "htmpll/lti/loop_filter.hpp"

namespace htmpll {
namespace {

const cplx j{0.0, 1.0};
constexpr double kW0 = 2.0 * std::numbers::pi;

LambdaExpression typical_lambda(double ratio) {
  const PllParameters p = make_typical_loop(ratio * kW0, kW0);
  return LambdaExpression(p.open_loop_gain(), kW0);
}

/// The printed closed form, sum_terms r S_k(s - p), through the S_k sums.
cplx evaluate_terms(const LambdaExpression& lam, cplx s) {
  cplx sum{0.0};
  for (const CothTerm& t : lam.terms()) {
    sum += t.residue * harmonic_pole_sum(s - t.pole, lam.w0(), t.order);
  }
  return sum;
}

TEST(Symbolic, TermsSumToTheExactAliasingSum) {
  // The printed terms, summed through the S_k closed forms, are the
  // exact aliasing sum lambda(s) = sum_m A(s + j m w0).
  const PllParameters p = make_typical_loop(0.2 * kW0, kW0);
  const LambdaExpression lam(p.open_loop_gain(), kW0);
  const AliasingSum ref(p.open_loop_gain(), kW0);
  for (const cplx s : {j * (0.03 * kW0), j * (0.11 * kW0), j * (0.27 * kW0),
                       j * (0.46 * kW0), cplx{-0.05 * kW0, 0.3 * kW0}}) {
    const cplx sum = evaluate_terms(lam, s);
    const cplx want = ref.exact(s);
    EXPECT_NEAR(std::abs(sum - want) / std::abs(want), 0.0, 1e-12)
        << "s = " << s;
  }
}

TEST(Symbolic, TermStructureOfTypicalLoop) {
  // A has a double pole at 0 and a simple pole at -wp: expect S1 + S2 at
  // 0 and S1 at -wp (any zero residues dropped).
  const LambdaExpression lam = typical_lambda(0.1);
  int s1_at_zero = 0, s2_at_zero = 0, s1_at_wp = 0;
  for (const CothTerm& t : lam.terms()) {
    if (std::abs(t.pole) < 1e-9) {
      if (t.order == 1) ++s1_at_zero;
      if (t.order == 2) ++s2_at_zero;
    } else if (t.order == 1) {
      ++s1_at_wp;
      EXPECT_NEAR(std::abs(t.pole + 4.0 * 0.1 * kW0) / (0.4 * kW0), 0.0,
                  1e-6);
    }
  }
  EXPECT_EQ(s1_at_zero, 1);
  EXPECT_EQ(s2_at_zero, 1);
  EXPECT_EQ(s1_at_wp, 1);
}

TEST(Symbolic, DerivativeMatchesFiniteDifference) {
  // d/ds S_k(s - p) = -k S_{k+1}(s - p): the printed terms differentiate
  // by raising each order by one, which the constructor's multiplicity
  // <= 3 check keeps within the S_1..S_4 closed forms.
  const LambdaExpression lam = typical_lambda(0.15);
  for (double f : {0.08, 0.22, 0.41}) {
    const cplx s = j * (f * kW0);
    const double h = 1e-6;
    const cplx fd =
        (evaluate_terms(lam, s + h) - evaluate_terms(lam, s - h)) / (2.0 * h);
    cplx an{0.0};
    for (const CothTerm& t : lam.terms()) {
      an += -static_cast<double>(t.order) * t.residue *
            harmonic_pole_sum(s - t.pole, kW0, t.order + 1);
    }
    EXPECT_NEAR(std::abs(an - fd) / std::abs(fd), 0.0, 1e-6) << "f = " << f;
  }
}

TEST(Symbolic, PeriodicityInJw0) {
  const LambdaExpression lam = typical_lambda(0.2);
  const cplx s = cplx{-0.05 * kW0, 0.3 * kW0};
  const cplx at_s = evaluate_terms(lam, s);
  EXPECT_NEAR(std::abs(at_s - evaluate_terms(lam, s + j * kW0)) /
                  std::abs(at_s),
              0.0, 1e-10);
}

TEST(Symbolic, ToStringNamesAllTerms) {
  const LambdaExpression lam = typical_lambda(0.1);
  const std::string text = lam.to_string();
  EXPECT_NE(text.find("S1"), std::string::npos);
  EXPECT_NE(text.find("S2"), std::string::npos);
  EXPECT_NE(text.find("coth"), std::string::npos);
}

TEST(Symbolic, RejectsExcessMultiplicity) {
  // Quadruple pole: derivative would need S5.
  const RationalFunction h(
      Polynomial::constant(1.0),
      Polynomial::from_roots({cplx{-1.0}, cplx{-1.0}, cplx{-1.0},
                              cplx{-1.0}}));
  EXPECT_THROW(LambdaExpression(h, 1.0), std::invalid_argument);
}

TEST(Symbolic, RejectsImproper) {
  const RationalFunction biproper(Polynomial::from_real({1.0, 1.0}),
                                  Polynomial::from_real({2.0, 1.0}));
  EXPECT_THROW(LambdaExpression(biproper, 1.0), std::invalid_argument);
}

}  // namespace
}  // namespace htmpll
