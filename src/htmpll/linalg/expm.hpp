// Real matrix exponential and Van Loan phi-function blocks.
//
// The behavioral PLL simulator propagates the loop-filter (plus VCO phase)
// state exactly between charge-pump events, where the driving current is
// held constant:
//
//   x(h) = e^{Ah} x0 + h*phi1(Ah) B u
//
// Both blocks are extracted from one exponential of the augmented matrix
// [[A,B],[0,0]] (Van Loan, 1978), so no invertibility of A is required
// (our filters have poles at s = 0).
#pragma once

#include "htmpll/linalg/matrix.hpp"

namespace htmpll {

/// Matrix exponential by scaling-and-squaring with a (6,6) Pade
/// approximant.  Requires a square matrix with finite entries; a NaN or
/// infinity anywhere raises std::invalid_argument instead of silently
/// poisoning the scaling heuristic (norm_inf propagates NaN, which used
/// to skip scaling entirely and return an all-NaN matrix).
RMatrix expm(const RMatrix& a);

/// Exact discrete propagator over a step of length h for
/// x' = A x + B u with u held constant on the step.
struct StepPropagator {
  RMatrix phi0;   ///< e^{Ah}                     (n x n)
  RMatrix gamma1; ///< h*phi1(Ah)*B, weight of u  (n x m)

  /// x1 = phi0*x0 + gamma1*u.
  RVector advance(const RVector& x0, const RVector& u) const;

  /// Scalar-input (m == 1) variant writing into caller-owned storage:
  /// no temporaries, so hot per-step callers (integrator peeks, Newton
  /// edge solves) stop allocating two vectors per call.  Arithmetic is
  /// bit-identical to advance(x0, {u}).  `out` is resized to the state
  /// order and must not alias x0.
  void advance_into(const RVector& x0, double u, RVector& out) const;
};

/// Builds the propagator for step length h.  B may be empty (autonomous
/// system), in which case gamma1 is empty too.
StepPropagator make_propagator(const RMatrix& a, const RMatrix& b, double h);

}  // namespace htmpll
