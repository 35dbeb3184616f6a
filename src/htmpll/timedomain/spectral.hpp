// Modal step evaluation of the phase-augmented loop: factor the filter
// block once, then advance the state over ANY step length from a few
// scalars per mode.
//
// The transient simulators advance x' = A x + B u exactly between
// charge-pump events, holding the input u constant over each step:
//
//   x(h) = e^{Ah} x + h phi1(Ah) B u.
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
// denominator, so its modes lambda_k are that polynomial's roots
// (find_roots, closed forms up to degree 2: the typical loop's DC mode
// is exactly 0) and its eigenvectors are the Vandermonde columns
// v_k = (1, lambda_k, ..., lambda_k^(n-2)).  The factory takes
// A_f = V diag(lambda) V^{-1} from them ONCE; w_k^T is row k of V^{-1}.
// A step of length h then needs only the per-mode scalars (ModalStep)
//
//   e_k = e^{lambda_k h},  g1_k = h phi1(lambda_k h),
//   g2_k = h^2 phi2(lambda_k h),
//
// and the state lives in modal form (ModalState): the coordinates
// alpha_k = w_k^T x_f and theta.  With beta_k = w_k^T b_f, a step is
//
//   alpha_k(h) = e_k alpha_k + g1_k beta_k u
//   theta(h)   = theta + Re sum_k c^T v_k (g1_k alpha_k + g2_k beta_k u)
//                + h b_theta u
//   theta'(h)  = Re sum_k c^T v_k alpha_k(h) + b_theta u
//                                              (= (A x(h) + B u)_theta)
//
// O(n) per step and per theta peek: the state is projected (alpha = W x_f)
// when it is set and rebuilt (x_f = Re sum_k v_k alpha_k, O(n^2)) only
// when it is read, and no Phi or Gamma1 matrix is ever formed.  Modes
// find_roots returns exactly real -- the closed forms give them for
// every RC filter, {0, -w_p} for the typical loop and {0} for the
// second-order loop -- carry real coordinates, basis rows and scalars
// and step in real arithmetic; the others (an underdamped pair) in
// complex arithmetic, one body serving both.  The scalar phi functions
// switch to a Taylor series below |z| = 0.5, where the direct formulas
// (e^z - 1)/z ... would cancel.
//
// Van Loan fallback, decided from the matrix alone: the integrator
// builds with make_propagator when the matrix has another shape (no
// trailing zero column, no input or several inputs, a filter block that
// is not a companion matrix), or when the denominator has a repeated
// root or kappa_inf(V) exceeds kMaxCondition.  The condition depends on
// the time unit.  For the modes {0, -w_p} of the typical loop (w_p =
// gamma w_UG) the unit-norm columns (1, 0) and (1, -w_p)/sqrt(1 + w_p^2)
// give kappa_inf(V) = (1 + 1/sqrt(1 + w_p^2)) (1 + 1/w_p)
// ~ 2 (1 + 1/w_p) with w_p in rad/s, so once w_p < ~2e-6 rad/s the loop
// runs on Van Loan whatever its w_UG/w0.  With gamma = 4: at
// w0 = 2 pi 1e-6 rad/s kappa reads 1.6e7 at w_UG/w0 = 0.005 and 8.0e5
// at 0.1; at w0 = 2 pi rad/s it reads 1.3 to 17.8 over ratios 0.27 to
// 0.005.  A slow-unit loop (w0 = 2 pi 1e-9 rad/s, kappa ~ 1e9) is how
// a whole simulation runs on the oracle.
#pragma once

#include <cstddef>
#include <vector>

#include "htmpll/linalg/expm.hpp"
#include "htmpll/linalg/matrix.hpp"

namespace htmpll {

/// The per-mode scalars of one step length h for the filter modes of
/// one kind: e^{lambda_k h}, h phi1(lambda_k h) and h^2 phi2(lambda_k h).
template <class T>
struct ModeScalars {
  std::vector<T> e, g1, g2;
};

/// The scalars of one step length h, the one evaluation every spectral
/// consumer contracts: the real modes' in real arithmetic, the complex
/// modes' in complex.
struct ModalStep {
  double h = 0.0;
  ModeScalars<double> real_modes;
  ModeScalars<cplx> complex_modes;
};

/// A state of the phase-augmented system in modal form: the coordinates
/// alpha_k = w_k^T x_f of the filter state, real for the real modes,
/// and theta.
struct ModalState {
  std::vector<double> real_modes;
  std::vector<cplx> complex_modes;
  double theta = 0.0;
};

/// theta and its rate theta' = (A x + B u)_theta at one state: the two
/// rows a VCO-edge Newton iterate reads.
struct ThetaRows {
  double theta = 0.0;
  double slope = 0.0;
};

namespace detail {

/// The modal data of the filter modes of one kind (real or complex),
/// nf the filter order.
template <class T>
struct ModeBlock {
  std::vector<T> lambda;
  DenseMatrix<T> v;     ///< row k: v_k, column k of V         (count x nf)
  DenseMatrix<T> w;     ///< row k: w_k^T, row k of V^{-1}     (count x nf)
  std::vector<T> beta;  ///< w_k^T b_f
  std::vector<T> cv;    ///< c^T v_k
};

}  // namespace detail

/// Per-(A, B) step evaluator.  Construction factors the system once;
/// evaluate() then takes the scalars of any step length, and advance(),
/// theta() and theta_rows() contract them with a modal state that
/// project() takes from a state vector and rebuild() turns back into
/// one.  Its const members keep no scratch, so concurrent callers may
/// share one factory.
class PropagatorFactory {
 public:
  /// kappa_inf(V) above which the modal basis is rejected: the
  /// reconstruction error of V f(Lambda) V^{-1} grows like
  /// eps * kappa(V), so 1e6 keeps the modal steps comfortably inside
  /// the 1e-10 state-agreement contract of the transient bench.
  static constexpr double kMaxCondition = 1e6;

  /// B may be empty (autonomous system).  Each companion filter block
  /// factored adds 1 to the "linalg.eig_factorizations" counter.
  /// Throws std::invalid_argument on a non-finite entry of A or B, on
  /// either path.
  PropagatorFactory(RMatrix a, RMatrix b);

  /// True when the modal evaluation serves this system.
  bool is_spectral() const { return spectral_; }
  /// kappa_inf of the unit-column Vandermonde basis of the filter
  /// block; +inf when nothing was factored or the basis is singular.
  double vector_condition() const { return cond_; }
  std::size_t order() const { return a_.rows(); }

  /// The Van Loan propagator make_propagator(A, B, h) of a finite step
  /// h > 0, built into `out`: the fallback of every system without a
  /// modal form, and the oracle the modal evaluation is tested against.
  void make_into(double h, StepPropagator& out) const;

  /// Scalars of a finite step h > 0 into `out`, whose vectors are sized
  /// to the mode counts (no allocation once warm).  The methods below
  /// all require is_spectral().
  void evaluate(double h, ModalStep& out) const;

  /// The modal form of the state x (order() entries) into `out`, sized
  /// to the mode counts.
  void project(const double* x, ModalState& out) const;
  /// The state vector of `a` into `out` (order() entries): the filter
  /// states Re sum_k v_k alpha_k, then theta as it is.
  void rebuild(const ModalState& a, double* out) const;

  /// The state one step of length s.h after `a` under the held input u,
  /// into `out`, which may be `a` itself.  Its theta is theta(s, a, u),
  /// bit for bit.
  void advance(const ModalStep& s, const ModalState& a, double u,
               ModalState& out) const;

  /// theta(h) alone.
  double theta(const ModalStep& s, const ModalState& a, double u) const;

  /// theta(h), bit-identical to theta(), and theta'(h).
  ThetaRows theta_rows(const ModalStep& s, const ModalState& a,
                       double u) const;

  /// theta' = (A x + B u)_theta at the state `a` itself.
  double rate(const ModalState& a, double u) const;

 private:
  void try_spectral();
  /// theta(h) - theta.
  double theta_increment(const ModalStep& s, const ModalState& a,
                         double u) const;

  RMatrix a_;
  RMatrix b_;
  bool spectral_ = false;
  double cond_ = 0.0;

  // Modal data of the filter block (order nf_ = n - 1), split by kind.
  std::size_t nf_ = 0;
  detail::ModeBlock<double> real_;
  detail::ModeBlock<cplx> complex_;
  double btheta_ = 0.0;  ///< last entry of B
};

}  // namespace htmpll
