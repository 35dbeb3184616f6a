// Charge-pump loop-filter component library and the paper's "typical
// loop design" (Fig. 3 topology, Fig. 5 open-loop characteristic).
//
// The PFD steers a charge pump with current Icp into the impedance
//   Z_LF(s) = (1 + s R C1) / (s (C1+C2) (1 + s R C1 C2/(C1+C2)))
// (series R-C1 shunted by C2), giving the loop-filter transfer function
// H_LF(s) = Icp * Z_LF(s) of eq. 21 and the open-loop gain of eq. 35:
//   A(s) = (w0/2pi) * (v0/s) * H_LF(s)
// -- three poles (two at DC) and one zero, exactly Fig. 5.
#pragma once

#include "htmpll/lti/rational.hpp"

namespace htmpll {

/// Physical second-order charge-pump filter: series R-C1 with shunt C2.
/// C2 = 0 degenerates to the classic first-order R-C network of
/// Gardner's second-order loop analysis (Z biproper, no parasitic pole).
struct ChargePumpFilter {
  double r;   ///< ohms
  double c1;  ///< farads (series with R)
  double c2;  ///< farads (shunt ripple capacitor; may be 0)

  /// Z_LF(s) as seen by the charge pump.
  RationalFunction impedance() const;

  double zero_freq() const;   ///< wz = 1/(R C1), rad/s
  double pole_freq() const;   ///< wp = (C1+C2)/(R C1 C2); +inf when C2=0
  double total_cap() const;   ///< C1 + C2

  /// Synthesizes components from the (wz, wp, Ctot) design view.
  /// Requires wp > wz > 0 and Ctot > 0.
  static ChargePumpFilter from_frequencies(double wz, double wp, double ctot);
};

/// Complete small-signal parameter set of the sampled PLL of Fig. 1.
struct PllParameters {
  double w0;    ///< reference angular frequency (rad/s); T = 2pi/w0
  double icp;   ///< charge-pump current (A)
  double kvco;  ///< VCO sensitivity v0 of eq. 24 (s/(V*s) in the paper's
                ///< time-normalized phase convention)
  ChargePumpFilter filter;

  /// H_LF(s) = Icp * Z_LF(s), eq. 21.
  RationalFunction loop_filter_tf() const;

  /// Continuous-time LTI open-loop gain A(s), eq. 35.
  RationalFunction open_loop_gain() const;

  /// Classical LTI closed-loop approximation A/(1+A) (eq. 38, rightmost).
  RationalFunction lti_closed_loop() const;

  double period() const;  ///< T = 2pi/w0
};

/// Throws std::invalid_argument, naming the field, unless w0 is positive
/// and finite and icp, kvco and the filter's R, C1 and C2 are finite.
/// Returns `p`, so a constructor can check it in its first member
/// initializer.  Called by SamplingPllModel and every transient
/// simulator.
const PllParameters& validate_pll_parameters(const PllParameters& p);

/// Builds the paper's typical loop: zero at w_ug/gamma, parasitic pole at
/// gamma*w_ug, charge-pump current scaled so |A(j w_ug)| = 1 exactly.
/// `w_ug` and `w0` are rad/s; gamma = 4 reproduces Fig. 5 (classical
/// phase margin atan(gamma) - atan(1/gamma) ~ 61.9 deg).
PllParameters make_typical_loop(double w_ug, double w0, double gamma = 4.0);

/// Classical LTI phase margin of the typical loop in degrees:
/// atan(gamma) - atan(1/gamma).
double typical_loop_lti_phase_margin_deg(double gamma = 4.0);

/// Gardner's classic second-order charge-pump loop: no ripple capacitor
/// (C2 = 0), so A(s) = K (1 + s/wz)/s^2 with wz = w_ug/gamma and
/// |A(j w_ug)| = 1.  Classical phase margin: atan(gamma).  Relative
/// degree 1 -- exercises the principal-value branch of the aliasing
/// machinery and the half-sample term of the z-domain transform.
PllParameters make_second_order_loop(double w_ug, double w0,
                                     double gamma = 4.0);

}  // namespace htmpll
