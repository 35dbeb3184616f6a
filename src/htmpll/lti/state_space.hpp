// Real state-space realizations of rational transfer functions.
//
// The time-domain simulator propagates the loop filter (and augmented
// VCO phase) exactly between charge-pump events; this module supplies the
// controllable-canonical realization and a complex-frequency response for
// cross-checking against the RationalFunction it came from.
#pragma once

#include "htmpll/linalg/matrix.hpp"
#include "htmpll/lti/rational.hpp"

namespace htmpll {

/// x' = A x + B u,  y = C x + D u  (single input, single output).
struct StateSpace {
  RMatrix a;  ///< n x n
  RMatrix b;  ///< n x 1
  RMatrix c;  ///< 1 x n
  double d = 0.0;

  std::size_t order() const { return a.rows(); }

  /// C (sI - A)^{-1} B + D.
  cplx frequency_response(cplx s) const;

  /// Output for a given state and input.
  double output(const RVector& x, double u) const;
};

/// Controllable canonical realization: A is the companion matrix of the
/// monic denominator s^n + a_{n-1} s^{n-1} + ... + a_0, with ones on the
/// superdiagonal and -a_0 ... -a_{n-1} in the last row, and B = e_n.
/// PropagatorFactory relies on this layout: it reads the filter's modes
/// as the roots of that denominator and its eigenvectors as the
/// Vandermonde columns (1, lambda, ..., lambda^(n-1)).  Requires a
/// proper transfer function with (numerically) real coefficients.
StateSpace to_state_space(const RationalFunction& h);

}  // namespace htmpll
