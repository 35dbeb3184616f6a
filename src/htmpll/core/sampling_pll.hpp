// The paper's PLL input-output model (Section 4).
//
// Loop equation (eq. 26):  theta = G (theta_ref - theta) with
//   G(s) = H_VCO(s) H_LF(s) H_PFD(s)            (eq. 27)
// Because H_PFD = (w0/2pi) l l^T is rank one, G = V~ l^T with
//   V~(s) = (w0/2pi) H_VCO(s) H_LF(s) l          (eq. 29)
// and Sherman-Morrison-Woodbury gives the closed form (eqs. 31-34)
//   theta~ = V~(s) l^T / (1 + lambda(s)) theta~_ref,
//   lambda(s) = l^T V~(s).
//
// For a time-invariant VCO, V~_n(s) = A(s + j n w0) and lambda is the
// aliasing sum of eq. 37; the baseband closed-loop transfer is eq. 38:
//   H_{0,0}(s) = A(s) / (1 + lambda(s)).
//
// This class covers both the time-invariant VCO (the paper's Section 5
// setting) and the general LPTV VCO with a non-trivial impulse
// sensitivity function (ISF), where lambda is computed per ISF harmonic
// through exact aliasing sums -- the "extension to arbitrary ...
// behavior" the paper mentions.  The point-wise calls (lambda, V~,
// closed_loop, lti_baseband_transfer) are the reference; the *_grid
// calls run the compiled EvalPlan (core/eval_plan.hpp) built with every
// model.
#pragma once

#include <memory>
#include <vector>

#include "htmpll/core/aliasing_sum.hpp"
#include "htmpll/core/builders.hpp"
#include "htmpll/core/htm.hpp"
#include "htmpll/lti/loop_filter.hpp"

namespace htmpll {

/// Evaluation methods of the explicit point-wise lambda(s, method, K),
/// the reference and truncation-ablation entry point.  The model itself
/// (lambda(s) and every grid) always uses kExact.
enum class LambdaMethod {
  kExact,      ///< coth closed form (no truncation error)
  kAdaptive,   ///< symmetric pairs with tail stopping rule
  kTruncated,  ///< fixed symmetric truncation (what a finite HTM sees)
};

/// How the sampled phase error is delivered to the loop filter -- the
/// paper's "extension to arbitrary PFDs".  Both shapes keep H_PFD rank
/// one (sampling always aliases), but reshape V~ and lambda:
///  * kImpulse: the charge pump's narrow pulses act as Dirac impulses of
///    weight e(mT) (Fig. 4, eq. 16) -- the paper's model.
///  * kZeroOrderHold: a sample-and-hold detector holds Icp*e(mT)/T for
///    the full period (same charge per cycle, unity DC gain).  Each
///    V~ component picks up H_zoh(s + j m w0) =
///    (1 - e^{-sT}) / ((s + j m w0) T)  -- note e^{-sT} is T-periodic in
///    the harmonic index, so the exact lambda machinery still applies.
enum class PfdShape {
  kImpulse,
  kZeroOrderHold,
};

struct SamplingPllOptions {
  PfdShape pfd_shape = PfdShape::kImpulse;
};

class EvalPlan;

class SamplingPllModel {
 public:
  /// `isf` is the VCO impulse sensitivity function normalized so its DC
  /// coefficient is real; the effective v(t) Fourier coefficients are
  /// v_k = kvco * isf_k.  The default (DC-only, coefficient 1) is the
  /// time-invariant VCO of the paper's Section 5.
  /// `extra_loop_dynamics` multiplies the loop-filter transfer function
  /// -- use it for loop delay (lti/delay.hpp), parasitic poles, or any
  /// additional LTI stage in the PFD->VCO path.  Throws
  /// std::invalid_argument when a harmonic channel's loop gain has a
  /// pole of multiplicity above 4, the limit of the exact lambda.
  explicit SamplingPllModel(
      PllParameters params,
      HarmonicCoefficients isf = HarmonicCoefficients(cplx{1.0}),
      SamplingPllOptions opts = {},
      RationalFunction extra_loop_dynamics = RationalFunction::constant(1.0));

  const PllParameters& parameters() const { return params_; }
  const SamplingPllOptions& options() const { return opts_; }
  const HarmonicCoefficients& isf() const { return isf_; }
  double w0() const { return params_.w0; }
  bool time_invariant_vco() const { return isf_.is_dc_only(); }

  /// Continuous-time LTI open-loop gain A(s) (eq. 35), with
  /// v0 = kvco * isf_0 (includes any extra loop dynamics).
  const RationalFunction& open_loop_gain() const { return a_; }

  /// H_LF(s) as the model uses it: Icp * Z_LF(s) * extra dynamics.
  const RationalFunction& loop_filter_tf() const { return hlf_; }

  /// Effective open-loop gain lambda(s) (eq. 37), exact closed form.
  cplx lambda(cplx s) const;
  /// lambda(s) by an explicit method: the reference oracle and the
  /// truncation ablation's entry point.  `truncation` (K >= 0) is read
  /// by kTruncated only.
  cplx lambda(cplx s, LambdaMethod method, int truncation) const;

  /// Analytic d lambda / ds of the exact closed form, via the order-bump
  /// rule d/ds S_k = -k S_{k+1} applied to every channel's
  /// partial-fraction term; for the ZOH shape the prefactor contributes
  /// the product-rule term T e^{-sT} * (pole-sum).  Requires every pole
  /// multiplicity <= 3 (S_k is implemented through k = 4).  This is the
  /// point-wise reference for the plan's derivative tables.
  cplx lambda_derivative(cplx s) const;

  /// lambda_derivative over a grid, through the plan's derivative
  /// tables; throws std::invalid_argument, as lambda_derivative does,
  /// when a pole multiplicity is 4 (the plan compiles no tables then).
  CVector lambda_derivative_grid(const CVector& s_grid) const;

  // ---- grid evaluation (parallel sweep engine) ----
  //
  // Every *_grid method evaluates its point-wise counterpart over a grid
  // of s points on the shared thread pool (HTMPLL_THREADS wide); the
  // points stream through the plan's structure-of-arrays batch kernels,
  // and slot i agrees with the point-wise call at s_grid[i] to <= 1e-12
  // relative error.  The result is independent of the thread count
  // (points never share accumulators).  Every grid point must be
  // finite: a NaN or infinite s throws std::invalid_argument.

  /// lambda over a grid.
  CVector lambda_grid(const CVector& s_grid) const;

  /// H_{0,0} (eq. 38) over a grid.
  CVector baseband_transfer_grid(const CVector& s_grid) const;

  /// Classical A/(1+A) over a grid, evaluated as N/(D + N) of
  /// A = N/D.  At a pole of A the point-wise A/(1+A) is not finite,
  /// while the grid returns the closed loop's limit there: 1 at s = 0
  /// (A's integrators), where N(0)/(D(0) + N(0)) = N(0)/N(0).
  CVector lti_baseband_transfer_grid(const CVector& s_grid) const;

  /// 1 - H_{0,0} over a grid.
  CVector baseband_error_transfer_grid(const CVector& s_grid) const;

  /// H_{n,0} for several output bands over one grid, sharing a single
  /// lambda evaluation per grid point: result[b][i] approximates
  /// closed_loop(bands[b], s_grid[i]) under the contract above.
  std::vector<CVector> closed_loop_grid(const std::vector<int>& bands,
                                        const CVector& s_grid) const;

  /// V~ components for |n| <= truncation (eq. 29):
  /// result[n + truncation] = vtilde_element(n, s).
  CVector vtilde(cplx s, int truncation) const;
  cplx vtilde_element(int n, cplx s) const;

  /// Closed-loop HTM element H_{n,m}(s) = V~_n(s)/(1 + lambda(s))
  /// (eq. 36: all columns of the closed-loop HTM are identical because
  /// the reference enters through the sampler).
  cplx closed_loop(int n, cplx s) const;

  /// Baseband-to-baseband transfer H_{0,0}(s) (eq. 38).
  cplx baseband_transfer(cplx s) const;

  /// Classical LTI approximation A/(1+A) (the paper's comparison case);
  /// the reference oracle of lti_baseband_transfer_grid.
  cplx lti_baseband_transfer(cplx s) const;

  /// Phase-error (input-to-error) baseband transfer
  /// E(s) = 1 - H_{0,0}(s) = (1 + lambda - A)/(1 + lambda).
  cplx baseband_error_transfer(cplx s) const;

  // ---- full-HTM assembly (reference path and LPTV verification) ----

  /// G(s) = H_VCO H_LF H_PFD assembled from the block builders.
  Htm open_loop_htm(cplx s, int truncation) const;

  /// Closed-loop HTM via the rank-one closed form (eq. 34).
  Htm closed_loop_htm(cplx s, int truncation) const;

  /// Closed-loop HTM via a dense (I+G)^{-1} G solve (reference).
  Htm closed_loop_htm_dense(cplx s, int truncation) const;

 private:
  /// Rational, m-shiftable part of the PFD shape (1/(sigma T) for ZOH);
  /// the T-periodic prefactor (1 - e^{-sT}) is applied separately.
  cplx shape_factor(cplx s_m) const;
  /// The T-periodic (harmonic-independent) prefactor of the PFD shape.
  cplx shape_prefactor(cplx s) const;
  /// H_LF(s_m) * shape_factor(s_m) -- the m-shifted filter gain every
  /// V~ component is built from.
  cplx shifted_gain(cplx s_m) const;

  PllParameters params_;
  HarmonicCoefficients isf_;
  SamplingPllOptions opts_;
  RationalFunction hlf_;  ///< Icp * Z_LF(s)
  RationalFunction a_;    ///< A(s), eq. 35
  /// Exact lambda machinery: per ISF harmonic k, the aliasing sum of
  /// B_k(s) = (w0/2pi) v_k H_LF(s) / (s + j k w0); lambda = sum_k sums.
  struct HarmonicChannel {
    int k;
    cplx v_k;
    AliasingSum sum;
  };
  std::vector<HarmonicChannel> channels_;
  /// Compiled batch-evaluation tables (core/eval_plan.hpp).  Immutable
  /// and shared across model copies.
  std::shared_ptr<const EvalPlan> plan_;

  friend class EvalPlan;
};

}  // namespace htmpll
