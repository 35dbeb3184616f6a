// Compiled evaluation plans for SamplingPllModel grid sweeps.
//
// The point-wise model walks one frequency point at a time: per point it
// re-derives the partial-fraction structure of every ISF harmonic
// channel, calls std::exp once per pole term (plus once for the ZOH
// prefactor), and evaluates the shifted loop-filter gains through the
// generic RationalFunction recursion.  None of that structure depends
// on the evaluation point -- it is fixed the moment the model is
// constructed.
//
// An EvalPlan flattens that fixed structure once, at model-construction
// time, into contiguous tables the linalg batch kernels can stream a
// whole grid through:
//  * exact lambda: every channel's pole/residue terms as PoleSumTerm
//    records carrying exp(p T), so one exp(-sT) plane per grid block
//    feeds the coth/csch^2 kernels of EVERY pole (exp(-2u) =
//    exp(-sT) exp(pT) for u = (pi/w0)(s-p)) AND the ZOH shape
//    prefactor 1 - exp(-sT);
//  * V~ / closed-loop bands: the loop-filter numerator/denominator
//    coefficient vectors plus the (k, v_k) index structure of the
//    nonzero ISF harmonics, evaluated as a shifted-gain table via
//    batched Horner over split re/im planes;
//  * the classical LTI closed loop A/(1 + A), compiled as the one
//    rational N/(D + N) of A = N/D, so a grid point costs two Horner
//    passes and one plane quotient instead of two complex divisions.
//
// The plan is the only grid engine: every SamplingPllModel builds one,
// and its lambda, lambda', V~, closed-loop and LTI grids (and so the
// pole polish and margin searches built on them) all run here.
// Numerical contract: every plan result agrees with the model's
// point-wise call to <= 1e-12 relative error (see tests/test_eval_plan).
// The point-wise calls are the reference oracle.
//
// Plans are immutable after build and shared by value-copied models
// (shared_ptr<const EvalPlan>); grid evaluation uses per-thread scratch
// planes, so concurrent sweeps over one plan are safe.
#pragma once

#include <memory>
#include <vector>

#include "htmpll/core/sampling_pll.hpp"
#include "htmpll/linalg/batch_kernels.hpp"

namespace htmpll {

class EvalPlan {
 public:
  /// Compiles the model's channel structure into batch tables.  Called
  /// by the SamplingPllModel constructor; counts itself under
  /// "core.plan_builds".
  static std::shared_ptr<const EvalPlan> build(const SamplingPllModel& model);

  /// True when derivative tables were compiled: every pole
  /// multiplicity is <= 3 (d/ds S_k = -k S_{k+1} raises each order by
  /// one, and S_k is implemented through k = 4).
  bool supports_derivative() const { return deriv_usable_; }

  /// Batched counterparts of the SamplingPllModel grid APIs (exact
  /// lambda).  Results match the point-wise calls to <= 1e-12 relative
  /// error; per-point domain errors (integrator poles, ZOH on a
  /// harmonic of w0) throw the same assertion messages as the
  /// point-wise calls.
  CVector lambda_grid(const CVector& s_grid) const;
  std::vector<CVector> closed_loop_grid(const std::vector<int>& bands,
                                        const CVector& s_grid) const;

  /// The LTI closed loop N/(D + N) of the open-loop gain A = N/D over a
  /// grid, through batch_rational.  Matches A/(1 + A) to <= 1e-12
  /// relative wherever that is finite; at a pole of A (s = 0 for every
  /// PLL, whose A has integrators) it returns the closed loop's limit,
  /// N(s)/N(s) = 1 where N(s) != 0.
  CVector lti_closed_loop_grid(const CVector& s_grid) const;

  /// d lambda / ds of the exact closed form, streamed through the same
  /// block machinery as lambda_grid.  Each pole term differentiates via
  /// a second residue table (d/ds sum_k r_k S_k = sum_k -k r_k S_{k+1},
  /// sharing pole, exp(pT) and the factored/cancellation guards); the
  /// ZOH prefactor adds the product-rule term T exp(-sT) * acc from the
  /// shared exp plane.  Requires supports_derivative(); agrees with
  /// SamplingPllModel::lambda_derivative to <= 1e-12 relative.
  CVector lambda_derivative_grid(const CVector& s_grid) const;

 private:
  EvalPlan() = default;

  /// One nonzero ISF harmonic: V~_n sums v * gain(s + j (n - k) w0).
  struct ChannelWeight {
    int k;
    cplx v;
  };

  struct Scratch;
  static Scratch& thread_scratch();

  /// Splits a block into planes and computes the shared exp(-sT) plane.
  void load_block(const cplx* s, std::size_t n, Scratch& sc) const;
  /// Exact lambda over a loaded block (requires the exp plane).
  void exact_lambda_block(std::size_t n, Scratch& sc) const;
  /// Shifted-gain table for offsets |m| <= mspan over a loaded block.
  void gains_block(std::size_t n, int mspan, Scratch& sc) const;
  /// ZOH prefactor plane (1 - exp(-sT)), or all-ones for impulse.
  void prefactor_block(std::size_t n, Scratch& sc) const;
  /// H_{band,0} = V~_band / (1 + lambda) over the loaded block from the
  /// gain table and the block's lambda plane, one plane quotient per
  /// point, left in the scratch numerator planes.
  void closed_loop_block(std::size_t n, int mspan, int band,
                         Scratch& sc) const;

  double w0_ = 0.0;
  double t_ = 0.0;      ///< T = 2 pi / w0
  double c_ = 0.0;      ///< pi / w0
  double front_ = 0.0;  ///< w0 / (2 pi)
  PfdShape shape_ = PfdShape::kImpulse;

  // Exact-lambda tables.
  std::vector<PoleSumTerm> exact_terms_;
  // Differentiated twins of exact_terms_ (empty when !deriv_usable_):
  // same pole / exp(pT) / factored flag, residue table shifted one
  // order up with -k scaling.
  bool deriv_usable_ = false;
  std::vector<PoleSumTerm> deriv_terms_;

  // V~ structure.
  std::vector<ChannelWeight> channels_;
  int hmax_ = 0;  ///< max |k| over nonzero ISF harmonics
  CVector hlf_num_, hlf_den_;  ///< H_LF coefficients (ascending)
  CVector lti_num_, lti_den_;  ///< N and D + N of A = N/D (ascending)
};

}  // namespace htmpll
