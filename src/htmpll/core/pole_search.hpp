// Closed-loop poles of the time-varying PLL model.
//
// The closed loop theta = V~ l^T/(1 + lambda) theta_ref is singular where
// 1 + lambda(s) = 0.  Because lambda is j w0-periodic, poles come in
// vertical ladders s* + j m w0; we report the representatives in the
// fundamental strip Im(s) in (-w0/2, w0/2].
//
// Strategy: seed from the z-domain characteristic roots (the ones an
// ImpulseInvariantModel solves at construction) mapped through
// s = ln(z)/T (exact by the Poisson identity), then polish with Newton
// on 1 + lambda(s) using the analytic derivative.  Every seed advances
// one iteration per lambda_grid / lambda_derivative_grid pair on the
// model's compiled eval plan, with active-lane masks and per-lane
// convergence / divergence / iteration-cap bookkeeping.  A lane whose
// derivative degenerates (zero or non-finite) is dropped with a diag
// event (pole_search.degenerate_step) instead of throwing.  The Newton
// residual doubles as a numerical proof that the z-domain and
// frequency-domain descriptions agree; while obs records, the health
// gauge core.max_pole_residual keeps the worst residual of a converged
// lane.
#pragma once

#include <vector>

#include "htmpll/core/sampling_pll.hpp"
#include "htmpll/ztrans/zdomain.hpp"

namespace htmpll {

struct ClosedLoopPole {
  cplx s;            ///< pole location, fundamental strip
  double frequency;  ///< |s| (rad/s)
  double damping;    ///< zeta = -Re(s)/|s|; negative when unstable
  double residual;   ///< |1 + lambda(s)| after polishing
  int iterations;    ///< Newton iterations used
  /// True when the last Newton step fell within the tolerance.  False
  /// when the lane was dropped (degenerate or non-finite Newton step;
  /// the reported s is the last finite iterate) or was still moving
  /// when max_iterations ran out.
  bool converged = true;
};

struct PoleSearchOptions {
  int max_iterations = 60;   ///< >= 1
  /// On |step| relative to w0; finite, > 0.  A step within 4 ulp(|s|)
  /// also converges, since none can be shorter far up the jw axis.
  double tolerance = 1e-12;
};

/// Masked lockstep Newton polish of many seeds: all active lanes advance
/// one iteration per batched lambda / lambda-derivative evaluation.
/// result[i] corresponds to seeds[i] (no sorting).  Throws
/// std::invalid_argument for invalid options.
std::vector<ClosedLoopPole> refine_closed_loop_poles(
    const SamplingPllModel& model, const std::vector<cplx>& seeds,
    const PoleSearchOptions& opts = {});

/// All closed-loop poles of the model (time-invariant VCO), sorted by
/// ascending |s|.
std::vector<ClosedLoopPole> closed_loop_poles(
    const SamplingPllModel& model, const PoleSearchOptions& opts = {});

/// The same poles, seeded from the roots `zmodel` already holds: it must
/// be the impulse-invariant model of model.open_loop_gain() at
/// model.w0() (its rate is checked), so a caller that needs the z-domain
/// verdict too solves the characteristic polynomial once.
std::vector<ClosedLoopPole> closed_loop_poles(
    const SamplingPllModel& model, const ImpulseInvariantModel& zmodel,
    const PoleSearchOptions& opts = {});

}  // namespace htmpll
