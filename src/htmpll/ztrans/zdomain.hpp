// Discrete-time (z-domain) PLL baseline in the style of Hein & Scott
// (1988) and Gardner (1980), built by the impulse-invariant transform.
//
// The sampled phase error drives weight-(theta_ref - theta) impulses into
// the filter+VCO cascade A(s); the phase seen at the next sampling
// instants is governed by the discrete loop gain
//   G(z) = T * Z{ a(nT) },   a(t) = L^{-1}{A(s)},  T = 2 pi / w0.
// By Poisson summation this is *exactly* the paper's effective open-loop
// gain: lambda(s) = G(e^{sT}) (minus T a(0+)/2 when A has relative
// degree 1) -- the property test in tests/ checks the two modules against
// each other, tying the HTM model to the prior z-domain art.
//
// Where the z-domain model stops short (the paper's point): it only sees
// the loop at the sampling instants, so it cannot produce the
// continuous-time baseband transfer H_{0,0}(jw) of Fig. 6 or the
// inter-band transfers H_{n,m} -- those need the HTM description.
#pragma once

#include "htmpll/lti/partial_fractions.hpp"
#include "htmpll/lti/rational.hpp"

namespace htmpll {

class ImpulseInvariantModel {
 public:
  /// `a` is the continuous open-loop gain A(s) (strictly proper, pole
  /// multiplicities <= 4); `w0` the sampling (reference) rate in rad/s.
  /// Solves the closed-loop characteristic polynomial once, so the
  /// poles and the stability verdict below are reads.  Throws
  /// std::invalid_argument when a pole factor e^{pT} or a coefficient of
  /// G(z) leaves the double range (a fast unstable pole of A).
  ImpulseInvariantModel(RationalFunction a, double w0);

  double w0() const { return w0_; }
  double period() const;

  /// Raw textbook impulse-invariant gain G(z) = T Z{a(nT)} with full
  /// weight on the t = 0 sample.
  const RationalFunction& loop_gain_z() const { return gz_; }

  /// The *physically consistent* discrete loop gain
  /// G_eff(z) = G(z) - T a(0+)/2.  For relative degree >= 2 (any loop
  /// with a ripple capacitor) a(0+) = 0 and the two coincide.  For
  /// relative degree 1 the charge pulse fires exactly at the sampling
  /// instant and half-interacts with the sample being formed; the
  /// symmetric (half-weight) convention -- the same one Poisson
  /// summation assigns to lambda(s) -- is the one the behavioral
  /// simulator confirms (see tests/test_second_order.cpp).
  const RationalFunction& effective_loop_gain_z() const { return gz_eff_; }

  /// Raw G evaluated at a point of the z-plane.
  cplx loop_gain(cplx z) const { return gz_(z); }

  /// lambda-equivalent: G_eff(e^{sT}), matching sum_m A(s + j m w0)
  /// exactly.
  cplx lambda_equivalent(cplx s) const;

  /// Discrete closed loop G_eff/(1+G_eff).
  RationalFunction closed_loop_z() const;

  /// Closed-loop characteristic polynomial den(G_eff) + num(G_eff).
  Polynomial characteristic() const;

  /// All closed-loop z-plane poles: the roots of characteristic(),
  /// found once at construction.
  const CVector& closed_loop_poles() const { return poles_; }

  /// True when every closed-loop pole lies strictly inside the circle
  /// of radius 1 - margin; a non-finite pole reads unstable.  `margin`
  /// (the required distance from the unit circle) must be finite and
  /// >= 0 (std::invalid_argument otherwise).
  bool is_stable(double margin = 0.0) const;

 private:
  RationalFunction a_;
  double w0_;
  RationalFunction gz_;      ///< raw transform (full t=0 weight)
  RationalFunction gz_eff_;  ///< half-weight convention (matches lambda)
  cplx a0_;  ///< a(0+) = sum of simple-pole residues (0 for rel.deg >= 2)
  CVector poles_;  ///< roots of characteristic()
};

}  // namespace htmpll
