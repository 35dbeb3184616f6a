// The effective open-loop gain lambda(s) = sum_m A(s + j m w0) (eq. 37).
//
// This is the quantity the whole paper turns on: the m != 0 aliasing
// terms are what the classical LTI approximation (lambda ~ A) drops, and
// what degrades the phase margin once w_UG approaches w0.
//
// Three evaluation strategies:
//  * truncated:  symmetric partial sum |m| <= M  (what a truncated HTM
//                computes; used for the truncation-order ablation),
//  * adaptive:   symmetric pairs until the tail is negligible,
//  * exact:      closed form via partial fractions and
//                sum_m 1/(x + j m w0)^k  ->  derivatives of
//                (pi/w0) coth(pi x / w0); no truncation error at all.
//
// The exact form also proves the link to the z-domain baseline: by the
// Poisson summation formula, lambda(s) = T * sum_n a(nT) e^{-snT} is the
// impulse-invariant z-transform of A evaluated at z = e^{sT} (a(0+) = 0
// because A has relative degree >= 2), which ztrans/ exploits.
#pragma once

#include "htmpll/lti/partial_fractions.hpp"
#include "htmpll/lti/rational.hpp"

namespace htmpll {

/// S_k(x) = sum_{m in Z} 1/(x + j m w0)^k for k = 1..4 (principal value
/// for k = 1), via the coth closed form.  Throws for k outside [1, 4].
cplx harmonic_pole_sum(cplx x, double w0, int k);

/// Batch entry point: fills out[0..kmax-1] with S_1(x)..S_kmax(x),
/// sharing ONE exp(-2z) evaluation between the coth and csch^2 kernels
/// instead of paying one std::exp per order.  Bit-identical to kmax
/// separate harmonic_pole_sum calls (same branch structure, same
/// operation order; the exponential is a pure common subexpression).
/// Throws for kmax outside [1, 4].
void harmonic_pole_sums(cplx x, double w0, int kmax, cplx* out);

/// Numerically stable coth / csch^2 on the whole complex plane (series
/// near 0, exponential form elsewhere); exposed for testing.
cplx stable_coth(cplx z);
cplx stable_csch2(cplx z);

/// coth(z) and csch^2(z) from one shared exp(-2z); each component is
/// bit-identical to the standalone function.
struct CothCsch2 {
  cplx coth;
  cplx csch2;
};
CothCsch2 stable_coth_csch2(cplx z);

class AliasingSum {
 public:
  /// Requires a strictly proper A (the PLL open-loop gain decays like
  /// 1/s^2, so its aliasing sum converges absolutely).  For relative
  /// degree 1 the symmetric/principal-value convention applies to both
  /// truncated and exact evaluation, so they remain consistent.
  AliasingSum(RationalFunction a, double w0);

  const RationalFunction& transfer() const { return a_; }
  double w0() const { return w0_; }

  /// The partial-fraction decomposition the exact path evaluates.
  const PartialFractions& partial_fractions() const { return pf_; }

  /// sum_{|m| <= M} A(s + j m w0) -- the raw truncated sum (what a
  /// finite HTM computes).  Converges only like 1/M because A ~ c/s^d.
  cplx truncated(cplx s, int max_harmonic) const;

  /// Symmetric-pair summation accelerated by an analytic tail
  /// correction: the first two Laurent coefficients of A at infinity are
  /// summed in closed form (via harmonic_pole_sum), so the remaining
  /// numeric tail decays like 1/M^3 instead of 1/M.  Stops after 4
  /// consecutive pairs whose remainder is below 1e-13 of the sum, or
  /// at 100,000 pairs (recorded as htm.truncation_saturated).
  cplx adaptive(cplx s) const;

  /// Exact closed form; requires every pole multiplicity <= 4.
  cplx exact(cplx s) const;

 private:
  RationalFunction a_;
  double w0_;
  PartialFractions pf_;
  int rel_degree_;   ///< d: A ~ c_d / s^d at infinity
  cplx laurent_d_;   ///< c_d
  cplx laurent_d1_;  ///< c_{d+1}
};

}  // namespace htmpll
