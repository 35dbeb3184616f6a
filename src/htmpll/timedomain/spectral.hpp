// Spectral step propagators of the phase-augmented loop: factor the
// filter block once, build the exact discrete propagator for ANY step
// length from n scalar exponentials.
//
// The transient simulators advance x' = A x + B u exactly between
// charge-pump events, holding the input u constant over each step, with
//
//   Phi(h)    = e^{Ah}
//   Gamma1(h) = h phi1(Ah) B     (weight of the held input)
//
// The reference is make_propagator: one Pade expm of the augmented Van
// Loan matrix per distinct h, an O((n+m)^3) factorization that
// dominated the probe/Monte Carlo sweeps because acquisition transients
// request thousands of irregular step lengths.
//
// Every system the simulators build,
// augment_with_phase(to_state_space(Z), kvco), has one input column and
// the form A = [[A_f, 0], [c^T, 0]]: theta integrates the filter output.
// That matrix carries a DEFECTIVE double eigenvalue at 0 whenever the
// filter has a pole at s = 0, so the factory never diagonalizes A
// itself.  A_f is to_state_space's companion matrix of Z's monic
// denominator, so its modes lambda_i are that polynomial's roots
// (find_roots, closed forms up to degree 2: the typical loop's DC mode
// is exactly 0) and its eigenvectors are the Vandermonde columns
// (1, lambda_i, ..., lambda_i^(n-2)).  The factory takes
// A_f = V diag(lambda) V^{-1} from them ONCE and stores the modal
// rank-one projectors P_i = v_i w_i^T and input columns G_i = P_i b_f;
// each step length then costs n-1 scalar exponentials and an O(n^2)
// accumulation:
//
//   Phi_f        = Re sum_i e^{lambda_i h}      P_i
//   Gamma1_f     = Re sum_i h   phi1(lambda_i h) G_i
//   Phi_theta    = Re sum_i h   phi1(lambda_i h) c^T P_i   (theta carries 1)
//   Gamma1_theta = Re sum_i h^2 phi2(lambda_i h) c^T G_i + h b_theta
//
// The scalar phi functions switch to a Taylor series below |z| = 0.5,
// where the direct formulas (e^z - 1)/z ... would cancel.
//
// Van Loan fallback: the factory builds with make_propagator, bit for
// bit, when the matrix has another shape (no trailing zero column, no
// input or several inputs, a filter block that is not a companion
// matrix), when the denominator has a repeated root or kappa_inf(V)
// exceeds kMaxCondition, and when the caller passes
// allow_spectral = false (TransientConfig::use_spectral_propagators),
// which runs the oracle through a whole simulation.
#pragma once

#include <cstddef>
#include <vector>

#include "htmpll/linalg/expm.hpp"
#include "htmpll/linalg/matrix.hpp"

namespace htmpll {

/// Per-(A, B) propagator builder.  Construction factors the system
/// once; make_into() then builds the StepPropagator for any step.  Not
/// thread-safe across concurrent calls (the exponential scratch is
/// reused), matching the per-integrator ownership of the propagator
/// memo.
class PropagatorFactory {
 public:
  /// kappa_inf(V) above which the modal basis is rejected: the
  /// reconstruction error of V f(Lambda) V^{-1} grows like
  /// eps * kappa(V), so 1e6 keeps spectral propagators comfortably
  /// inside the 1e-10 state-agreement contract of the transient bench.
  static constexpr double kMaxCondition = 1e6;

  /// B may be empty (autonomous system).  `allow_spectral` false builds
  /// every propagator with make_propagator.  Each companion filter block
  /// factored adds 1 to the "linalg.eig_factorizations" counter.
  /// Throws std::invalid_argument on a non-finite entry of A or B, on
  /// either path.
  PropagatorFactory(RMatrix a, RMatrix b, bool allow_spectral = true);

  /// True when make_into() uses the modal build.
  bool is_spectral() const { return spectral_; }
  /// True when the caller allowed the modal build (even if the matrix
  /// forced the Van Loan fallback).
  bool spectral_requested() const { return requested_; }
  /// kappa_inf of the unit-column Vandermonde basis of the filter
  /// block; +inf when nothing was factored or the basis is singular.
  double vector_condition() const { return cond_; }
  std::size_t order() const { return a_.rows(); }

  /// Propagator for a finite step length h > 0, built into `out` and
  /// reusing its matrix storage.  The modal build performs no allocation
  /// into a warm `out` of the same order; the Van Loan fallback is
  /// make_propagator(a, b, h).
  void make_into(double h, StepPropagator& out) const;

  /// Last (theta) component of phi0(h) x + gamma1(h) u at each of
  /// `count` step lengths h[i] sharing one state x and input u, without
  /// building any propagator: the theta row is a modal contraction (see
  /// the header comment), so one e^z set plus O(n) accumulation per
  /// offset replaces the O(n^2) build.  out[i] is bit-identical to
  /// make_into(h[i], p), p.advance_into(x, u, y), y[n-1] --
  /// same kernel, same mode order, same accumulation order -- and an
  /// offset of 0 returns x[n-1].  Requires is_spectral(); throws on a
  /// negative or non-finite offset.
  void propagate_last_row_many(const double* h, std::size_t count,
                               const double* x, double u,
                               double* out) const;

 private:
  void try_spectral();

  RMatrix a_;
  RMatrix b_;
  bool requested_ = false;
  bool spectral_ = false;
  double cond_ = 0.0;

  // Modal data of the filter block (order nf_ = n - 1).
  std::size_t nf_ = 0;
  CVector lambda_;
  std::vector<CMatrix> proj_;   ///< P_i = v_i w_i^T  (nf x nf)
  std::vector<CVector> gmode_;  ///< G_i = P_i b_f    (len nf)
  std::vector<CVector> cproj_;  ///< c^T P_i          (len nf)
  CVector cgmode_;              ///< c^T G_i          (one per mode)
  double btheta_ = 0.0;         ///< last entry of B

  // Scratch for the exponentials and the theta-row contraction (see the
  // thread-safety note above).
  mutable std::vector<double> zre_, zim_, ere_, eim_, trow_;
};

}  // namespace htmpll
