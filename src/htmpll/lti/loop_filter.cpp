#include "htmpll/lti/loop_filter.hpp"

#include <cmath>
#include <limits>
#include <numbers>

#include "htmpll/util/check.hpp"

namespace htmpll {

RationalFunction ChargePumpFilter::impedance() const {
  HTMPLL_REQUIRE(r > 0.0 && c1 > 0.0 && c2 >= 0.0,
                 "filter components must be positive (C2 may be zero)");
  // Z(s) = (1 + s R C1) / (s (C1+C2) + s^2 R C1 C2);
  // C2 = 0 gives the biproper (1 + s R C1)/(s C1).
  const Polynomial num = Polynomial::from_real({1.0, r * c1});
  const RationalFunction z =
      c2 == 0.0
          ? RationalFunction(num, Polynomial::from_real({0.0, c1}))
          : RationalFunction(num, Polynomial::from_real(
                                      {0.0, c1 + c2, r * c1 * c2}));
  // A coefficient that underflows below Polynomial's trim (R C1 C2 of a
  // loop near w0 ~ 1e125) would silently drop the pole at -wp.
  HTMPLL_REQUIRE(z.num().degree() == 1 &&
                     z.den().degree() == (c2 == 0.0 ? 1u : 2u),
                 "filter impedance lost a pole or zero: R C1 or R C1 C2 "
                 "is outside the double range");
  return z;
}

double ChargePumpFilter::zero_freq() const { return 1.0 / (r * c1); }

double ChargePumpFilter::pole_freq() const {
  if (c2 == 0.0) return std::numeric_limits<double>::infinity();
  return (c1 + c2) / (r * c1 * c2);
}

double ChargePumpFilter::total_cap() const { return c1 + c2; }

ChargePumpFilter ChargePumpFilter::from_frequencies(double wz, double wp,
                                                    double ctot) {
  HTMPLL_REQUIRE(wz > 0.0 && wp > wz, "need 0 < wz < wp");
  HTMPLL_REQUIRE(ctot > 0.0, "total capacitance must be positive");
  const double b = wz / wp;  // = C2 / (C1+C2)
  ChargePumpFilter f;
  f.c2 = ctot * b;
  f.c1 = ctot * (1.0 - b);
  f.r = 1.0 / (wz * f.c1);
  return f;
}

RationalFunction PllParameters::loop_filter_tf() const {
  return RationalFunction::constant(icp) * filter.impedance();
}

RationalFunction PllParameters::open_loop_gain() const {
  // A(s) = (w0/2pi) * (v0/s) * Icp * Z_LF(s)
  const double front = w0 / (2.0 * std::numbers::pi);
  return RationalFunction::constant(front) *
         RationalFunction::integrator(kvco) * loop_filter_tf();
}

RationalFunction PllParameters::lti_closed_loop() const {
  return open_loop_gain().closed_loop_unity_feedback();
}

double PllParameters::period() const { return 2.0 * std::numbers::pi / w0; }

const PllParameters& validate_pll_parameters(const PllParameters& p) {
  HTMPLL_REQUIRE(p.w0 > 0.0 && std::isfinite(p.w0),
                 "PllParameters w0 must be positive and finite");
  HTMPLL_REQUIRE(std::isfinite(p.icp), "PllParameters icp must be finite");
  HTMPLL_REQUIRE(std::isfinite(p.kvco), "PllParameters kvco must be finite");
  HTMPLL_REQUIRE(std::isfinite(p.filter.r),
                 "PllParameters filter.r must be finite");
  HTMPLL_REQUIRE(std::isfinite(p.filter.c1),
                 "PllParameters filter.c1 must be finite");
  HTMPLL_REQUIRE(std::isfinite(p.filter.c2),
                 "PllParameters filter.c2 must be finite");
  return p;
}

PllParameters make_typical_loop(double w_ug, double w0, double gamma) {
  HTMPLL_REQUIRE(w_ug > 0.0 && w0 > 0.0, "frequencies must be positive");
  HTMPLL_REQUIRE(gamma > 1.0, "zero/pole split gamma must exceed 1");
  const double wz = w_ug / gamma;
  const double wp = gamma * w_ug;

  PllParameters p;
  p.w0 = w0;
  p.kvco = 1.0;
  // A normalized capacitance keeps component values near unity; only the
  // product Icp*Kvco/Ctot matters for A(s).
  p.filter = ChargePumpFilter::from_frequencies(wz, wp, 1.0 / w_ug);

  // |A(j w_ug)| = K' * |1 + j gamma| / (w_ug^2 |1 + j/gamma|) with
  // K' = w0 v0 Icp / (2pi Ctot); solve for Icp so |A(j w_ug)| = 1.
  const double kprime = w_ug * w_ug *
                        std::sqrt((1.0 + 1.0 / (gamma * gamma)) /
                                  (1.0 + gamma * gamma));
  p.icp = kprime * 2.0 * std::numbers::pi * p.filter.total_cap() /
          (p.w0 * p.kvco);
  return p;
}

double typical_loop_lti_phase_margin_deg(double gamma) {
  return (std::atan(gamma) - std::atan(1.0 / gamma)) * 180.0 /
         std::numbers::pi;
}

PllParameters make_second_order_loop(double w_ug, double w0, double gamma) {
  HTMPLL_REQUIRE(w_ug > 0.0 && w0 > 0.0, "frequencies must be positive");
  HTMPLL_REQUIRE(gamma > 0.0, "zero placement gamma must be positive");
  const double wz = w_ug / gamma;

  PllParameters p;
  p.w0 = w0;
  p.kvco = 1.0;
  p.filter.c1 = 1.0 / w_ug;  // normalized capacitance (only ratios matter)
  p.filter.c2 = 0.0;
  p.filter.r = 1.0 / (wz * p.filter.c1);

  // |A(j w_ug)| = K' sqrt(1 + gamma^2) / w_ug^2 with
  // K' = w0 v0 Icp / (2 pi C1); solve for Icp.
  const double kprime = w_ug * w_ug / std::sqrt(1.0 + gamma * gamma);
  p.icp = kprime * 2.0 * std::numbers::pi * p.filter.c1 /
          (p.w0 * p.kvco);
  return p;
}

}  // namespace htmpll
