#include "htmpll/core/sampling_pll.hpp"

#include <algorithm>

#include "htmpll/core/eval_plan.hpp"
#include <cmath>
#include <numbers>

#include "htmpll/obs/metrics.hpp"
#include "htmpll/obs/trace.hpp"
#include "htmpll/parallel/thread_pool.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll {

namespace {

/// Scalar lambda(s) evaluations -- the per-point unit of work every
/// sweep and stability search is built from.
obs::Counter& lambda_eval_counter() {
  static obs::Counter& c = obs::counter("core.lambda_evals");
  return c;
}

/// Grid entry-point check: a NaN or infinite s would otherwise come back
/// as a silent NaN or a misleading domain error.
void require_finite_grid(const CVector& s_grid) {
  for (const cplx& s : s_grid) {
    HTMPLL_REQUIRE(std::isfinite(s.real()) && std::isfinite(s.imag()),
                   "grid point is not finite (NaN or infinite s)");
  }
}

}  // namespace

namespace {

/// v_k-scaled per-harmonic rational B_k(s) = (w0/2pi) v_k H_LF(s)/(s+jkw0);
/// lambda(s) = sum_k sum_m B_k(s + j m w0)  (interchange of the double
/// sum over HTM row index n = m + k and column index m).  For a
/// zero-order-hold PFD shape the rational part of H_zoh(s) = 1/(sT)
/// multiplies in; the T-periodic prefactor (1 - e^{-sT}) is applied by
/// the caller after summing.
RationalFunction harmonic_channel_tf(const RationalFunction& hlf, double w0,
                                     int k, cplx v_k, PfdShape shape) {
  const cplx front = v_k * w0 / (2.0 * std::numbers::pi);
  Polynomial den(CVector{cplx{0.0, static_cast<double>(k) * w0},
                         cplx{1.0}});
  cplx gain = front;
  if (shape == PfdShape::kZeroOrderHold) {
    const double t = 2.0 * std::numbers::pi / w0;
    den *= Polynomial::s();
    gain /= t;
  }
  return RationalFunction(Polynomial::constant(gain), den) * hlf;
}

}  // namespace

SamplingPllModel::SamplingPllModel(PllParameters params,
                                   HarmonicCoefficients isf,
                                   SamplingPllOptions opts,
                                   RationalFunction extra_loop_dynamics)
    : params_(params), isf_(std::move(isf)), opts_(opts) {
  validate_pll_parameters(params_);
  HTMPLL_REQUIRE(std::abs(isf_[0].imag()) <=
                     1e-12 * std::max(1.0, std::abs(isf_[0])),
                 "ISF DC coefficient must be real (VCO average gain)");
  HTMPLL_REQUIRE(isf_[0].real() != 0.0,
                 "ISF DC coefficient must be non-zero");

  HTMPLL_REQUIRE(extra_loop_dynamics.is_proper() &&
                     !extra_loop_dynamics.is_zero(),
                 "extra loop dynamics must be proper and non-zero");
  hlf_ = params_.loop_filter_tf() * extra_loop_dynamics;
  const double v0 = params_.kvco * isf_[0].real();
  a_ = RationalFunction::constant(params_.w0 / (2.0 * std::numbers::pi)) *
       RationalFunction::integrator(v0) * hlf_;
  for (const Polynomial* poly : {&a_.num(), &a_.den()}) {
    for (const cplx& c : poly->coefficients()) {
      HTMPLL_REQUIRE(std::isfinite(c.real()) && std::isfinite(c.imag()),
                     "open-loop gain A(s) has a non-finite coefficient: "
                     "the loop is outside the double range");
    }
  }

  for (int k = -isf_.max_harmonic(); k <= isf_.max_harmonic(); ++k) {
    const cplx v_k = params_.kvco * isf_[k];
    if (v_k == cplx{0.0}) continue;
    AliasingSum sum(
        harmonic_channel_tf(hlf_, params_.w0, k, v_k, opts_.pfd_shape),
        params_.w0);
    for (const PoleTerm& term : sum.partial_fractions().terms()) {
      HTMPLL_REQUIRE(term.residues.size() <= 4,
                     "loop gain has a pole of multiplicity above 4; the "
                     "exact lambda supports pole multiplicities 1..4");
    }
    channels_.push_back(HarmonicChannel{k, v_k, std::move(sum)});
  }

  plan_ = EvalPlan::build(*this);
}

cplx SamplingPllModel::shape_factor(cplx s_m) const {
  if (opts_.pfd_shape == PfdShape::kImpulse) return cplx{1.0};
  // ZOH rational part 1/(s_m T); the caller multiplies shape_prefactor.
  const double t = params_.period();
  HTMPLL_REQUIRE(std::abs(s_m) > 0.0,
                 "ZOH shape evaluated on a harmonic of w0; evaluate "
                 "off the harmonic grid");
  return 1.0 / (s_m * t);
}

cplx SamplingPllModel::shape_prefactor(cplx s) const {
  if (opts_.pfd_shape == PfdShape::kImpulse) return cplx{1.0};
  return 1.0 - std::exp(-s * params_.period());
}

cplx SamplingPllModel::shifted_gain(cplx s_m) const {
  return hlf_(s_m) * shape_factor(s_m);
}

cplx SamplingPllModel::lambda(cplx s) const {
  return lambda(s, LambdaMethod::kExact, 0);
}

cplx SamplingPllModel::lambda(cplx s, LambdaMethod method,
                              int truncation) const {
  HTMPLL_REQUIRE(truncation >= 0, "truncation must be non-negative");
  switch (method) {
    case LambdaMethod::kExact: {
      lambda_eval_counter().add();
      cplx acc{0.0};
      for (const HarmonicChannel& ch : channels_) acc += ch.sum.exact(s);
      return shape_prefactor(s) * acc;
    }
    case LambdaMethod::kAdaptive: {
      lambda_eval_counter().add();
      cplx acc{0.0};
      for (const HarmonicChannel& ch : channels_) acc += ch.sum.adaptive(s);
      return shape_prefactor(s) * acc;
    }
    case LambdaMethod::kTruncated: {
      // Truncate the HTM row index n (lambda = sum_n V~_n), matching
      // what a finite (2K+1)-harmonic HTM computes.
      lambda_eval_counter().add();
      cplx acc{0.0};
      for (int n = -truncation; n <= truncation; ++n) {
        acc += vtilde_element(n, s);
      }
      return acc;
    }
  }
  throw_assertion_failure("unhandled LambdaMethod", __FILE__, __LINE__);
}

cplx SamplingPllModel::lambda_derivative(cplx s) const {
  // d/ds of the exact closed form lambda = pre(s) sum_i sum_k r_ik
  // S_k(s - p_i): each order-k term differentiates to -k r_ik S_{k+1},
  // so one harmonic_pole_sums call per pole serves both the value (the
  // ZOH product rule needs it) and the derivative.
  lambda_eval_counter().add();
  cplx acc{0.0};
  cplx dacc{0.0};
  for (const HarmonicChannel& ch : channels_) {
    for (const PoleTerm& term : ch.sum.partial_fractions().terms()) {
      const int kmax = static_cast<int>(term.residues.size());
      HTMPLL_REQUIRE(kmax >= 1 && kmax <= 3,
                     "analytic lambda derivative requires pole "
                     "multiplicity <= 3 (S_k implemented through k = 4)");
      cplx sums[4];
      harmonic_pole_sums(s - term.pole, params_.w0, kmax + 1, sums);
      for (int k = 1; k <= kmax; ++k) {
        acc += term.residues[static_cast<std::size_t>(k - 1)] * sums[k - 1];
        dacc += term.residues[static_cast<std::size_t>(k - 1)] *
                (-static_cast<double>(k)) * sums[k];
      }
    }
  }
  if (opts_.pfd_shape == PfdShape::kImpulse) return dacc;
  const double t = params_.period();
  const cplx e = std::exp(-s * t);
  return t * e * acc + (1.0 - e) * dacc;
}

CVector SamplingPllModel::lambda_derivative_grid(const CVector& s_grid) const {
  HTMPLL_TRACE_SPAN("core.lambda_grid");
  require_finite_grid(s_grid);
  HTMPLL_REQUIRE(plan_->supports_derivative(),
                 "analytic lambda derivative requires pole "
                 "multiplicity <= 3 (S_k implemented through k = 4)");
  return plan_->lambda_derivative_grid(s_grid);
}

cplx SamplingPllModel::vtilde_element(int n, cplx s) const {
  // V~_n(s) = (w0/2pi) / (s + j n w0) * sum_m v_{n-m} H_LF(s + j m w0),
  // the m-sum ranging over the (finitely many) non-zero ISF harmonics.
  const cplx sn = s + cplx{0.0, static_cast<double>(n) * params_.w0};
  HTMPLL_REQUIRE(std::abs(sn) > 0.0,
                 "V~ evaluated on an integrator pole s = -j n w0");
  // channels_ already holds the non-zero (k, v_k = kvco * isf_k) table
  // in ascending-k order, so iterating it is bit-identical to walking
  // the full harmonic range and re-deriving/re-testing each v_k.
  cplx acc{0.0};
  for (const HarmonicChannel& ch : channels_) {
    const int m = n - ch.k;
    const cplx sm = s + cplx{0.0, static_cast<double>(m) * params_.w0};
    acc += ch.v_k * shifted_gain(sm);
  }
  return shape_prefactor(s) * acc * params_.w0 /
         (2.0 * std::numbers::pi) / sn;
}

CVector SamplingPllModel::vtilde(cplx s, int truncation) const {
  HTMPLL_REQUIRE(truncation >= 0, "truncation must be non-negative");
  CVector v(2 * static_cast<std::size_t>(truncation) + 1);
  for (int n = -truncation; n <= truncation; ++n) {
    v[static_cast<std::size_t>(n + truncation)] = vtilde_element(n, s);
  }
  return v;
}

cplx SamplingPllModel::closed_loop(int n, cplx s) const {
  return vtilde_element(n, s) / (1.0 + lambda(s));
}

cplx SamplingPllModel::baseband_transfer(cplx s) const {
  return closed_loop(0, s);
}

cplx SamplingPllModel::lti_baseband_transfer(cplx s) const {
  const cplx a = a_(s);
  return a / (1.0 + a);
}

cplx SamplingPllModel::baseband_error_transfer(cplx s) const {
  return 1.0 - baseband_transfer(s);
}

CVector SamplingPllModel::lambda_grid(const CVector& s_grid) const {
  HTMPLL_TRACE_SPAN("core.lambda_grid");
  require_finite_grid(s_grid);
  return plan_->lambda_grid(s_grid);
}

CVector SamplingPllModel::baseband_transfer_grid(const CVector& s_grid) const {
  HTMPLL_TRACE_SPAN("core.baseband_transfer_grid");
  require_finite_grid(s_grid);
  std::vector<CVector> rows = plan_->closed_loop_grid({0}, s_grid);
  return std::move(rows[0]);
}

CVector SamplingPllModel::lti_baseband_transfer_grid(
    const CVector& s_grid) const {
  require_finite_grid(s_grid);
  CVector out(s_grid.size());
  ThreadPool& pool = ThreadPool::global();
  pool.for_each_chunk(s_grid.size(), pool.auto_grain(s_grid.size()),
                      [&](std::size_t begin, std::size_t end) {
                        for (std::size_t i = begin; i < end; ++i) {
                          out[i] = lti_baseband_transfer(s_grid[i]);
                        }
                      });
  return out;
}

CVector SamplingPllModel::baseband_error_transfer_grid(
    const CVector& s_grid) const {
  CVector h = baseband_transfer_grid(s_grid);
  for (cplx& x : h) x = 1.0 - x;
  return h;
}

std::vector<CVector> SamplingPllModel::closed_loop_grid(
    const std::vector<int>& bands, const CVector& s_grid) const {
  HTMPLL_TRACE_SPAN("core.closed_loop_grid");
  require_finite_grid(s_grid);
  return plan_->closed_loop_grid(bands, s_grid);
}

Htm SamplingPllModel::open_loop_htm(cplx s, int truncation) const {
  CVector v(2 * static_cast<std::size_t>(isf_.max_harmonic()) + 1);
  for (int k = -isf_.max_harmonic(); k <= isf_.max_harmonic(); ++k) {
    v[static_cast<std::size_t>(k + isf_.max_harmonic())] =
        params_.kvco * isf_[k];
  }
  const HarmonicCoefficients scaled_isf{CVector(v)};
  const Htm h_vco = vco_htm(scaled_isf, truncation, params_.w0, s);
  const Htm h_lf = lti_htm(hlf_, truncation, params_.w0, s);
  const Htm h_pfd = sampling_pfd_htm(truncation, params_.w0, s);
  if (opts_.pfd_shape == PfdShape::kImpulse) {
    return h_vco * h_lf * h_pfd;  // eq. 27
  }
  // Generalized PFD: the hold shape is a (diagonal) LTI block between
  // the sampler and the loop filter.
  const cplx pre = shape_prefactor(s);
  const Htm h_shape = lti_htm(
      [this, pre](cplx sigma) { return pre * shape_factor(sigma); },
      truncation, params_.w0, s);
  return h_vco * h_lf * h_shape * h_pfd;
}

Htm SamplingPllModel::closed_loop_htm(cplx s, int truncation) const {
  // V~ computed directly (eq. 29) with the same column truncation as the
  // finite HTM product, so the rank-one form matches
  // closed_loop_htm_dense exactly -- but in O(K) instead of assembling
  // the O(K^3) matrix product.
  const Htm proto(truncation, params_.w0, s);
  const double front = params_.w0 / (2.0 * std::numbers::pi);
  CVector v(proto.dim());
  for (int n = -truncation; n <= truncation; ++n) {
    const cplx sn = s + cplx{0.0, static_cast<double>(n) * params_.w0};
    HTMPLL_REQUIRE(std::abs(sn) > 0.0,
                   "closed_loop_htm evaluated on an integrator pole");
    cplx acc{0.0};
    for (const HarmonicChannel& ch : channels_) {
      const int m = n - ch.k;
      if (m < -truncation || m > truncation) continue;  // HTM truncation
      const cplx sm = s + cplx{0.0, static_cast<double>(m) * params_.w0};
      acc += ch.v_k * hlf_(sm) * shape_factor(sm);
    }
    v[proto.index(n)] = shape_prefactor(s) * front * acc / sn;
  }
  return closed_loop_rank_one(v, proto);
}

Htm SamplingPllModel::closed_loop_htm_dense(cplx s, int truncation) const {
  return closed_loop_dense(open_loop_htm(s, truncation));
}

}  // namespace htmpll
