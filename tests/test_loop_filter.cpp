#include <limits>
#include <numbers>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "htmpll/lti/bode.hpp"
#include "htmpll/lti/loop_filter.hpp"

namespace htmpll {
namespace {

const cplx j{0.0, 1.0};

TEST(ChargePumpFilter, FrequenciesRoundTrip) {
  const double wz = 1e4, wp = 1e6, ctot = 2e-9;
  const ChargePumpFilter f = ChargePumpFilter::from_frequencies(wz, wp, ctot);
  EXPECT_NEAR(f.zero_freq() / wz, 1.0, 1e-12);
  EXPECT_NEAR(f.pole_freq() / wp, 1.0, 1e-12);
  EXPECT_NEAR(f.total_cap() / ctot, 1.0, 1e-12);
  EXPECT_GT(f.r, 0.0);
  EXPECT_GT(f.c1, 0.0);
  EXPECT_GT(f.c2, 0.0);
}

TEST(ChargePumpFilter, RejectsBadFrequencies) {
  EXPECT_THROW(ChargePumpFilter::from_frequencies(1e6, 1e4, 1e-9),
               std::invalid_argument);
  EXPECT_THROW(ChargePumpFilter::from_frequencies(0.0, 1e4, 1e-9),
               std::invalid_argument);
  EXPECT_THROW(ChargePumpFilter::from_frequencies(1e3, 1e4, -1.0),
               std::invalid_argument);
}

TEST(ChargePumpFilter, ImpedanceAsymptotes) {
  const ChargePumpFilter f = ChargePumpFilter::from_frequencies(1e3, 1e5, 1e-9);
  const RationalFunction z = f.impedance();
  // Low frequency: Z ~ 1/(s Ctot).
  const double wlo = 1e-1;
  EXPECT_NEAR(std::abs(z(wlo * j)) * wlo * f.total_cap(), 1.0, 1e-3);
  // High frequency: Z ~ 1/(s C2).
  const double whi = 1e9;
  EXPECT_NEAR(std::abs(z(whi * j)) * whi * f.c2, 1.0, 1e-3);
  // At the zero the phase recovers toward -45 deg from -90.
  EXPECT_NEAR(phase_deg(z(1e3 * j)), -45.0, 1.5);
}

TEST(TypicalLoop, UnityGainAtRequestedCrossover) {
  const double w0 = 2.0 * std::numbers::pi * 1e6;
  for (double ratio : {0.01, 0.1, 0.3, 0.5}) {
    const PllParameters p = make_typical_loop(ratio * w0, w0);
    const RationalFunction a = p.open_loop_gain();
    EXPECT_NEAR(std::abs(a(ratio * w0 * j)), 1.0, 1e-9)
        << "ratio " << ratio;
  }
}

TEST(TypicalLoop, OpenLoopShapeMatchesFig5) {
  // Three poles (two at DC) and one zero.
  const double w0 = 2.0 * std::numbers::pi * 1e6;
  const PllParameters p = make_typical_loop(0.1 * w0, w0);
  const RationalFunction a = p.open_loop_gain();
  EXPECT_EQ(a.den().degree(), 3u);
  EXPECT_EQ(a.num().degree(), 1u);
  const CVector poles = a.poles();
  int at_dc = 0;
  for (const cplx& x : poles) {
    if (std::abs(x) < 1e-3 * w0) ++at_dc;
  }
  EXPECT_EQ(at_dc, 2);
}

TEST(TypicalLoop, PhaseMarginMatchesAnalyticFormula) {
  const double w0 = 2.0 * std::numbers::pi * 1e6;
  const double w_ug = 0.05 * w0;
  const PllParameters p = make_typical_loop(w_ug, w0);
  const RationalFunction a = p.open_loop_gain();
  const FrequencyResponse f = [&a](double w) { return a(w * j); };
  const auto c = find_gain_crossover(f, w_ug * 1e-3, w_ug * 1e3);
  ASSERT_TRUE(c.has_value());
  EXPECT_NEAR(c->frequency / w_ug, 1.0, 1e-6);
  EXPECT_NEAR(c->phase_margin_deg, typical_loop_lti_phase_margin_deg(), 1e-6);
}

TEST(TypicalLoop, GammaControlsMargin) {
  EXPECT_NEAR(typical_loop_lti_phase_margin_deg(4.0), 61.9275, 1e-3);
  EXPECT_NEAR(typical_loop_lti_phase_margin_deg(2.0), 36.8699, 1e-3);
  const double w0 = 2.0 * std::numbers::pi * 1e6;
  const PllParameters p = make_typical_loop(0.1 * w0, w0, 2.0);
  const RationalFunction a = p.open_loop_gain();
  const FrequencyResponse f = [&a](double w) { return a(w * j); };
  const auto c = find_gain_crossover(f, w0 * 1e-4, w0 * 10.0);
  ASSERT_TRUE(c.has_value());
  EXPECT_NEAR(c->phase_margin_deg, 36.8699, 1e-4);
}

TEST(TypicalLoop, LtiClosedLoopDcGainIsUnity) {
  const double w0 = 2.0 * std::numbers::pi * 1e6;
  const PllParameters p = make_typical_loop(0.1 * w0, w0);
  const RationalFunction cl = p.lti_closed_loop();
  // Type-2 loop: H(0) = 1 exactly.
  EXPECT_NEAR(std::abs(cl(1e-6 * w0 * j)), 1.0, 1e-6);
}

TEST(TypicalLoop, ClosedLoopSurvivesWideDynamicRangeCoefficients) {
  // Regression: at physical frequencies (w0 ~ 1e9 rad/s) polynomial
  // coefficients span > 20 orders of magnitude; relative trimming used
  // to delete the cubic term and flatten the closed-loop peaking.
  const double w0 = 2.0 * std::numbers::pi * 200e6;
  const PllParameters p = make_typical_loop(0.05 * w0, w0);
  const RationalFunction cl = p.lti_closed_loop();
  EXPECT_EQ(cl.den().degree(), 3u);
  // PM ~ 62 deg implies ~1.2x closed-loop peaking near crossover.
  double peak = 0.0;
  for (double x : {0.3, 0.5, 0.8, 1.0, 1.3}) {
    peak = std::max(peak, std::abs(cl(x * 0.05 * w0 * j)));
  }
  EXPECT_GT(peak, 1.1);
  EXPECT_LT(peak, 1.5);
}

TEST(TypicalLoop, PeriodConsistent) {
  const double w0 = 4.0;
  const PllParameters p = make_typical_loop(1.0, w0);
  EXPECT_NEAR(p.period(), 2.0 * std::numbers::pi / w0, 1e-15);
}

TEST(PllParameters, ValidationNamesTheNonFiniteField) {
  // The check every model and simulator constructor runs first.  It
  // passes a valid loop through by reference and rejects a non-finite
  // (or, for w0, non-positive) field by name.
  const double w0 = 2.0 * std::numbers::pi * 1e6;
  const PllParameters good = make_typical_loop(0.1 * w0, w0);
  EXPECT_EQ(&validate_pll_parameters(good), &good);
  // C2 = 0 (no ripple capacitor) is a valid loop.
  EXPECT_NO_THROW(
      validate_pll_parameters(make_second_order_loop(0.1 * w0, w0)));

  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  const auto rejection = [](const PllParameters& p) {
    try {
      validate_pll_parameters(p);
    } catch (const std::invalid_argument& e) {
      return std::string(e.what());
    }
    return std::string("accepted");
  };
  const auto expect_named = [&](double PllParameters::*field, double bad,
                                const std::string& what) {
    PllParameters p = good;
    p.*field = bad;
    EXPECT_NE(rejection(p).find(what), std::string::npos)
        << what << " = " << bad << ": " << rejection(p);
  };
  const auto expect_filter_named = [&](double ChargePumpFilter::*field,
                                       double bad, const std::string& what) {
    PllParameters p = good;
    p.filter.*field = bad;
    EXPECT_NE(rejection(p).find(what), std::string::npos)
        << what << " = " << bad << ": " << rejection(p);
  };
  for (double bad : {0.0, -w0, inf, nan}) {
    expect_named(&PllParameters::w0, bad, "w0 must be positive and finite");
  }
  for (double bad : {inf, -inf, nan}) {
    expect_named(&PllParameters::icp, bad, "icp must be finite");
    expect_named(&PllParameters::kvco, bad, "kvco must be finite");
    expect_filter_named(&ChargePumpFilter::r, bad, "filter.r must be finite");
    expect_filter_named(&ChargePumpFilter::c1, bad,
                        "filter.c1 must be finite");
    expect_filter_named(&ChargePumpFilter::c2, bad,
                        "filter.c2 must be finite");
  }
}

}  // namespace
}  // namespace htmpll
