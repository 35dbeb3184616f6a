// Spectral step propagators: factor the state matrix once, build the
// exact discrete propagator for ANY step length from n scalar
// exponentials.
//
// The transient simulators advance x' = A x + B u(t) exactly between
// charge-pump events with the Van Loan propagator blocks
//
//   Phi(h)    = e^{Ah}
//   Gamma1(h) = h   * phi1(Ah) B     (weight of u0)
//   Gamma2(h) = h^2 * phi2(Ah) B     (weight of (u1-u0)/h)
//
// The seed path rebuilds these per distinct h with a Pade expm of the
// augmented Van Loan matrix -- an O((n+2m)^3) factorization that
// dominated the probe/Monte Carlo sweeps because acquisition transients
// request thousands of irregular step lengths.  This factory instead
// diagonalizes A = V diag(lambda) V^{-1} ONCE and stores the modal
// rank-one projectors P_i = v_i w_i^T and input columns G_i = P_i B;
// each step length then costs n scalar exponentials (routed through the
// batch_cexp SIMD kernel) and an O(n^2)-per-output-block accumulation:
//
//   Phi(h)    = Re sum_i e^{lambda_i h}       P_i
//   Gamma1(h) = Re sum_i h   phi1(lambda_i h) G_i
//   Gamma2(h) = Re sum_i h^2 phi2(lambda_i h) G_i
//
// The scalar phi functions switch to a Taylor series below |z| = 0.5,
// where the direct formulas (e^z - 1)/z ... would cancel.
//
// PLL-specific structure: the phase-augmented state matrix
// [[A_f, 0], [kvco c^T, 0]] carries a DEFECTIVE double eigenvalue at 0
// (theta integrates the filter output, which itself has a pole at
// s = 0), so plain diagonalization is impossible exactly where this
// engine matters most.  The factory detects the trailing zero column
// and factors only the filter block A_f; the theta row of each
// propagator then follows exactly from one more modal phi function:
//
//   Phi_theta    = h   sum_i phi1(lambda_i h) c^T P_i
//   Gamma1_theta = h^2 sum_i phi2(lambda_i h) c^T G_i + h       b_theta
//   Gamma2_theta = h^3 sum_i phi3(lambda_i h) c^T G_i + h^2 / 2 b_theta
//
// Fallback policy: if A (or the filter block) is defective, the QR
// iteration fails, or kappa_inf(V) exceeds `max_condition`, the factory
// silently reverts to the Pade path -- whose output is bit-identical to
// make_propagator, i.e. to the seed.  HTMPLL_SPECTRAL=0 (or
// spectral::set_enabled(false), or TransientConfig::
// use_spectral_propagators = false) forces that path globally.
#pragma once

#include <cstddef>
#include <vector>

#include "htmpll/linalg/expm.hpp"
#include "htmpll/linalg/matrix.hpp"

namespace htmpll {

namespace spectral {

/// Process-wide spectral-propagator switch: HTMPLL_SPECTRAL=0/off/pade
/// disables the modal path (every factory then builds Pade propagators,
/// bit-identical to the seed); 1/on/auto (or unset) enables it.  The
/// environment is read once and cached.
bool enabled();

/// Test/bench pin overriding the environment policy.
void set_enabled(bool on);

}  // namespace spectral

/// Per-(A, B) propagator builder.  Construction factors the system
/// once; make() then builds a StepPropagator for any positive h.
/// Not thread-safe across concurrent make() calls (per-mode scratch is
/// reused), matching the per-integrator ownership of the propagator
/// memo.
class PropagatorFactory {
 public:
  enum class Mode {
    kSpectral,           ///< A itself diagonalized
    kSpectralAugmented,  ///< trailing zero column split off, A_f diagonalized
    kPade,               ///< Van Loan expm per step (seed path)
  };

  /// kappa_inf(V) above which the modal basis is rejected: the
  /// reconstruction error of V f(Lambda) V^{-1} grows like
  /// eps * kappa(V), so 1e6 keeps spectral propagators comfortably
  /// inside the 1e-10 state-agreement contract of the transient bench.
  static constexpr double kDefaultMaxCondition = 1e6;

  /// B may be empty (autonomous system).  `allow_spectral` false forces
  /// Mode::kPade regardless of the global spectral::enabled() switch.
  PropagatorFactory(RMatrix a, RMatrix b, bool allow_spectral = true,
                    double max_condition = kDefaultMaxCondition);

  Mode mode() const { return mode_; }
  /// True when make() uses the modal path.
  bool is_spectral() const { return mode_ != Mode::kPade; }
  /// True when the caller and the global switch both asked for the
  /// modal path (even if the matrix forced a Pade fallback).
  bool spectral_requested() const { return requested_; }
  /// kappa_inf of the factored eigenbasis; +inf on the Pade path.
  double vector_condition() const { return cond_; }
  std::size_t order() const { return a_.rows(); }
  std::size_t inputs() const { return m_; }

  /// Propagator for step length h > 0.  Pade mode is bit-identical to
  /// make_propagator(a, b, h).
  StepPropagator make(double h) const;

  /// Allocation-free variant: builds the same propagator (bit-identical
  /// to make(h)) into `out`, reusing its matrix storage.  On the
  /// spectral path a warm `out` (same order) performs no allocation at
  /// all, which is what makes shared propagator stores cheap enough to
  /// rebuild on every miss.
  void make_into(double h, StepPropagator& out) const;

  /// `want_gamma2 == false` skips the Gamma2 block on the spectral path
  /// (out.gamma2 comes back empty): phi0/gamma1 are bit-identical to
  /// the full build, and consumers with piecewise-constant input
  /// (u1 == u0, i.e. every transient-sim step) never read Gamma2.  The
  /// Pade path ignores the flag and always builds all three blocks.
  void make_into(double h, StepPropagator& out, bool want_gamma2) const;

  /// True when propagate_last_row_many() is available: phase-augmented
  /// modal factorization with a scalar input.
  bool has_last_row_fast_path() const {
    return mode_ == Mode::kSpectralAugmented && m_ <= 1;
  }

  /// Last (theta) component of phi0(h) x + gamma1(h) u at each of
  /// `count` step lengths h[i] >= 0 sharing one state x and input u,
  /// without building any propagator: the augmented theta row is a
  /// modal contraction (see the header comment), so one e^z set plus
  /// O(n) accumulation per offset replaces the O(n^2) build.  out[i] is
  /// bit-identical to make(h[i]).advance_into(x, u, u, h[i], out)[n-1]
  /// -- same kernel, same mode order, same accumulation order -- and an
  /// offset of 0 returns x[n-1].  Throws on a negative or NaN offset.
  void propagate_last_row_many(const double* h, std::size_t count,
                               const double* x, double u,
                               double* out) const;

 private:
  void try_spectral(double max_condition);
  bool factor_block(const RMatrix& block, double max_condition);
  void make_spectral_into(double h, StepPropagator& out,
                          bool want_gamma2) const;
  /// Gamma2-free build of the phase-augmented scalar-input propagator:
  /// same accumulation order as the generic loop with the row indexing
  /// hoisted to raw pointers, so the output is bit-identical while the
  /// per-entry address math disappears from the propagator stores'
  /// rebuild stream.
  void make_spectral_aug_g2free_into(double h, StepPropagator& out) const;

  RMatrix a_;
  RMatrix b_;
  bool requested_ = false;
  Mode mode_ = Mode::kPade;
  double cond_ = 0.0;

  // Modal data of the factored block (order nf_ = n or n-1).
  std::size_t nf_ = 0;
  std::size_t m_ = 0;
  CVector lambda_;
  std::vector<CMatrix> proj_;    ///< P_i = v_i w_i^T           (nf x nf)
  std::vector<CMatrix> gmode_;   ///< G_i = P_i B_f             (nf x m)
  std::vector<CVector> cproj_;   ///< c^T P_i (augmented only)  (len nf)
  std::vector<CVector> cgmode_;  ///< c^T G_i (augmented only)  (len m)
  RVector btheta_;               ///< last row of B (augmented only)

  // Scratch for the batch_cexp call and the theta-row fast path (see
  // thread-safety note above).
  mutable std::vector<double> zre_, zim_, ere_, eim_, trow_;
};

}  // namespace htmpll
