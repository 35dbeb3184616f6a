// Exact piecewise propagation of a linear state-space system driven by a
// piecewise-constant input (the charge-pump current between PFD events).
//
// There is no ODE-solver step error anywhere in the transient simulator:
// each segment is advanced with the exact discrete propagator of the
// state matrix, so the comparison against the HTM model (the paper's
// "within 2%" claim) measures modeling error, not integration error.
// The step is modal (PropagatorFactory) for the phase-augmented loop:
// its filter block is to_state_space's companion matrix, whose modes are
// the roots of the filter's denominator.  Any other system, or a
// denominator with a repeated or near-repeated root, takes the Van Loan
// expm.  The matrix alone decides, and its condition test depends on
// the time unit: the typical loop's modal basis has condition
// ~ 2 (1 + 1/w_p), w_p its filter pole in rad/s, so once
// w_p < ~2e-6 rad/s it steps on Van Loan at any w_UG/w0 (spectral.hpp).
#pragma once

#include <limits>
#include <vector>

#include "htmpll/linalg/expm.hpp"
#include "htmpll/lti/state_space.hpp"
#include "htmpll/timedomain/spectral.hpp"

namespace htmpll {

/// Builds the augmented system [filter states; theta] with
/// theta' = kvco * (C_f x + D_f i); the output row reports the filter
/// output y (the VCO control).  Shared by the transient simulators.
StateSpace augment_with_phase(const StateSpace& filter, double kvco);

/// Exact stepping of x' = A x + B u under a held scalar input.  On the
/// modal path the state lives in modal form (ModalState): each step and
/// each theta peek costs O(n), and state() rebuilds the vector x only
/// when it is read, caching it until the next step.  Like the step memo, that
/// cache makes an instance unsafe for concurrent callers, readers
/// included.  The Van Loan path keeps x itself.  Every step length must
/// be finite and non-negative: peek, peek_into, peek_last_many,
/// peek_theta and advance throw std::invalid_argument otherwise and
/// leave the state as it was.
class PiecewiseExactIntegrator {
 public:
  explicit PiecewiseExactIntegrator(StateSpace ss);

  std::size_t order() const { return ss_.order(); }
  const StateSpace& system() const { return ss_; }

  /// True when steps are served by the one-time modal factorization
  /// instead of a per-step expm.
  bool spectral_propagators() const { return factory_.is_spectral(); }

  /// The state vector; on the modal path, rebuilt from the modal state
  /// at the first read after a step.
  const RVector& state() const;
  /// The last state component (theta of the phase-augmented loop),
  /// equal to state().back() but read with no rebuild.
  double last_state() const {
    return factory_.is_spectral() ? modal_.theta : x_.back();
  }
  void set_state(RVector x);

  /// y = C x + D u at the current state.
  double output(double u) const { return ss_.output(state(), u); }

  /// State after holding input `u` for `h` seconds, without committing.
  RVector peek(double h, double u) const;

  /// Allocation-free peek: writes the peeked state into `out` (resized
  /// to order()).  Bit-identical to peek(); `out` must not alias the
  /// internal state.
  void peek_into(double h, double u, RVector& out) const;

  /// Last state component of the peek at each of `count` offsets of one
  /// segment: out[i] is bit-identical to peek(h[i], u)[order()-1], and
  /// an offset of 0 returns the current last component.  With the modal
  /// factorization each offset takes its own scalar set, outside the
  /// step memo, and the theta row alone; the Van Loan path takes plain
  /// peek_into.
  void peek_last_many(const double* h, std::size_t count, double u,
                      double* out) const;

  /// The last state component and its rate, (A x + B u)_last, at the
  /// peek: the two rows a VCO-edge Newton iterate reads.  The theta is
  /// bit-identical to peek(h, u)[order()-1]; with the modal
  /// factorization no state vector is written.  Requires one input
  /// column.
  ThetaRows peek_theta(double h, double u) const;

  /// Commit: advance the state by `h` under constant input `u`.
  void advance(double h, double u);


 private:
  /// Memo lookup of a step h > 0: on a miss, evaluates the modal scalars
  /// or builds the Van Loan propagator of h into the memo.
  void lookup(double h) const;
  /// (A x + B u)_last at the state x.
  double last_rate(const RVector& x, double u) const;

  StateSpace ss_;
  PropagatorFactory factory_;
  ModalState modal_;  ///< the state, on the modal path
  /// The state on the Van Loan path.  On the modal path, its rebuild,
  /// current while x_current_.
  mutable RVector x_;
  mutable bool x_current_ = true;

  // One-entry step memo: the last step length requested and its modal
  // scalars (or, on the Van Loan path, its propagator).  A lookup of the
  // same h -- typically a commit taking the step its edge search
  // evaluated last -- returns it; any other h re-evaluates it in place,
  // which on the modal path costs one scalar set per mode and no
  // allocation.  That is cheaper than the hash index a keyed cache needs
  // to avoid it.  NaN matches no step.  Results never depend on hits vs
  // misses; while obs records, the counters
  // timedomain.propagator_{lookups,misses} count them.
  mutable double memo_h_ = std::numeric_limits<double>::quiet_NaN();
  mutable ModalStep step_;
  mutable StepPropagator memo_;
  mutable ModalStep sample_step_;  ///< peek_last_many's per-offset scalars
  mutable ModalState peeked_;      ///< peek_into's modal staging
  mutable RVector scratch_;        ///< Van Loan advance and peek staging
};

}  // namespace htmpll
