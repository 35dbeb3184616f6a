#include "htmpll/design/design.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <utility>

#include "htmpll/linalg/batch_kernels.hpp"
#include "htmpll/util/check.hpp"
#include "htmpll/util/grid.hpp"

namespace htmpll {

double gamma_for_phase_margin(double pm_deg) {
  HTMPLL_REQUIRE(pm_deg > 0.0 && pm_deg < 90.0,
                 "phase margin must lie in (0, 90) degrees for this "
                 "zero/pole topology");
  // atan(g) - atan(1/g) = 2 atan(g) - pi/2 = pm
  const double pm = pm_deg * std::numbers::pi / 180.0;
  return std::tan(0.5 * (pm + 0.5 * std::numbers::pi));
}

PllParameters synthesize_loop(const DesignSpec& spec, double w_ug,
                              double gamma) {
  PllParameters p = make_typical_loop(w_ug, spec.w0, gamma);
  // Rescale to the requested physical component budget; A(s) only
  // depends on Icp*Kvco/Ctot, so scale Icp to compensate.
  const double cap_scale = spec.ctot / p.filter.total_cap();
  p.filter.c1 *= cap_scale;
  p.filter.c2 *= cap_scale;
  p.filter.r /= cap_scale;
  p.icp *= cap_scale;
  // Move the VCO gain to the requested value, compensating with Icp.
  p.icp *= p.kvco / spec.kvco;
  p.kvco = spec.kvco;
  return p;
}

DesignResult measure_design(const DesignSpec& spec,
                            const SamplingPllModel& model, double gamma) {
  return measure_design(
      spec, model, ImpulseInvariantModel(model.open_loop_gain(), spec.w0),
      gamma);
}

DesignResult measure_design(const DesignSpec& spec,
                            const SamplingPllModel& model,
                            const ImpulseInvariantModel& zmodel,
                            double gamma) {
  HTMPLL_REQUIRE(zmodel.w0() == spec.w0,
                 "the z-domain model must sample at the spec's w0");
  DesignResult out;
  out.gamma = gamma;
  out.params = model.parameters();
  out.margins = effective_margins(model);
  out.z_domain_stable = zmodel.is_stable();
  out.meets_spec_lti =
      out.margins.lti_found &&
      out.margins.lti_phase_margin_deg >=
          spec.target_pm_deg - spec.pm_slack_deg;
  out.meets_spec_effective =
      out.margins.eff_found &&
      out.margins.eff_phase_margin_deg >=
          spec.target_pm_deg - spec.pm_slack_deg;
  return out;
}

DesignResult evaluate_design(const DesignSpec& spec, double w_ug,
                             double gamma) {
  return measure_design(
      spec, SamplingPllModel(synthesize_loop(spec, w_ug, gamma)), gamma);
}

DesignResult design_classical(const DesignSpec& spec) {
  HTMPLL_REQUIRE(spec.w0 > 0.0 && spec.target_w_ug > 0.0,
                 "design frequencies must be positive");
  HTMPLL_REQUIRE(spec.target_w_ug < 0.5 * spec.w0,
                 "crossover beyond w0/2 cannot be sampled-stable");
  const double gamma = gamma_for_phase_margin(spec.target_pm_deg);
  return evaluate_design(spec, spec.target_w_ug, gamma);
}

DesignResult design_time_varying_aware(const DesignSpec& spec,
                                       const AwareDesignOptions& opts) {
  const double gamma = gamma_for_phase_margin(spec.target_pm_deg);
  DesignResult at_target = evaluate_design(spec, spec.target_w_ug, gamma);
  if (at_target.meets_spec_effective) return at_target;

  // The effective PM decreases monotonically with bandwidth over the
  // usable range; bisect w_ug downward until the spec holds.
  double lo = spec.target_w_ug * 1e-3;
  double hi = spec.target_w_ug;
  DesignResult best = evaluate_design(spec, lo, gamma);
  HTMPLL_REQUIRE(best.meets_spec_effective,
                 "spec unreachable even at 1000x reduced bandwidth");
  for (int it = 0; it < opts.max_iterations; ++it) {
    const double mid = std::sqrt(lo * hi);
    DesignResult r = evaluate_design(spec, mid, gamma);
    if (r.meets_spec_effective) {
      best = r;
      lo = mid;
      if (r.margins.eff_phase_margin_deg - spec.target_pm_deg <=
          opts.pm_tolerance_deg) {
        break;
      }
    } else {
      hi = mid;
    }
  }
  return best;
}

namespace {

/// The jitter integrands of both models on one log quadrature grid.
/// Everything that does not depend on the loop -- the grid and its
/// split s = jw planes, S_ref, S_vco and the folded VCO sum
/// F(w) = sum_{0<|m|<=fold} S_vco(|w + m w0|) -- is built once, so
/// scoring a candidate loop costs one model build and one H_00 grid on
/// its compiled plan (TV), or one batch_rational pass of the closed
/// loop N/(D + N) over the planes, with no model (LTI).  The pointwise
/// NoiseAnalysis chain computes the same integrals and stays as the
/// test oracle.
class JitterQuadrature {
 public:
  explicit JitterQuadrature(const JitterOptimizationSpec& spec)
      : spec_(spec) {
    const auto silent = [](const PowerLawPsd& p) {
      return p.white == 0.0 && p.flicker == 0.0 && p.walk == 0.0;
    };
    HTMPLL_REQUIRE(!(silent(spec.s_ref) && silent(spec.s_vco)),
                   "noise PSDs must be provided: s_ref and s_vco are both "
                   "zero");
    HTMPLL_REQUIRE(spec.w0 > 0.0, "reference rate must be positive");
    HTMPLL_REQUIRE(spec.fold_harmonics >= 0,
                   "fold_harmonics must be >= 0 (zero keeps only the "
                   "unfolded m = 0 term)");
    HTMPLL_REQUIRE(spec.quadrature_points >= 2,
                   "quadrature needs at least two points");
    w_ = logspace(spec.w_lo_frac * spec.w0, spec.w_hi_frac * spec.w0,
                  spec.quadrature_points);
    const std::size_t n = w_.size();
    s_.resize(n);
    re_zero_.assign(n, 0.0);
    s_ref_.resize(n);
    s_vco_.resize(n);
    folded_.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
      s_[i] = cplx{0.0, w_[i]};
      s_ref_[i] = spec.s_ref(w_[i]);
      s_vco_[i] = spec.s_vco(w_[i]);
      for (int m = -spec.fold_harmonics; m <= spec.fold_harmonics; ++m) {
        const double wm = std::abs(w_[i] + static_cast<double>(m) * spec.w0);
        if (m == 0 || wm == 0.0) continue;
        folded_[i] += spec.s_vco(wm);
      }
    }
  }

  /// |H00|^2 S_ref + |1 - H00|^2 S_vco + |H00|^2 F, with H00 the
  /// sampled loop's baseband transfer (eq. 38); +inf for a loop the
  /// half-rate criterion predicts unstable.
  double tv(double w_ug) const {
    const SamplingPllModel model(
        make_typical_loop(w_ug, spec_.w0, spec_.gamma));
    if (predicts_half_rate_instability(model)) {
      return std::numeric_limits<double>::infinity();
    }
    const CVector h = model.baseband_transfer_grid(s_);
    std::vector<double> psd(w_.size());
    for (std::size_t i = 0; i < w_.size(); ++i) {
      const double h2 = std::norm(h[i]);
      psd[i] = h2 * s_ref_[i] + std::norm(1.0 - h[i]) * s_vco_[i] +
               h2 * folded_[i];
    }
    return trapezoid_rms(w_, psd);
  }

  /// Classical transfers: |H|^2 S_ref + |1 - H|^2 S_vco with H = N/(D + N)
  /// the unity-feedback closed loop of A = N/D, no folding, no sampling
  /// effects.
  double lti(double w_ug) const {
    const RationalFunction h =
        make_typical_loop(w_ug, spec_.w0, spec_.gamma).lti_closed_loop();
    const CVector& num = h.num().coefficients();
    const CVector& den = h.den().coefficients();
    const std::size_t n = w_.size();
    std::vector<double> h_re(n), h_im(n), tmp_re(n), tmp_im(n);
    batch_rational(num.data(), num.size(), den.data(), den.size(),
                   re_zero_.data(), w_.data(), n, h_re.data(), h_im.data(),
                   tmp_re.data(), tmp_im.data());
    std::vector<double> psd(n);
    for (std::size_t i = 0; i < n; ++i) {
      const cplx hv{h_re[i], h_im[i]};
      psd[i] = std::norm(hv) * s_ref_[i] + std::norm(1.0 - hv) * s_vco_[i];
    }
    return trapezoid_rms(w_, psd);
  }

 private:
  const JitterOptimizationSpec& spec_;
  std::vector<double> w_;
  CVector s_;
  std::vector<double> re_zero_;  ///< Re s = 0: the grid is s = j w_
  std::vector<double> s_ref_, s_vco_, folded_;
};

/// A minimum found by brent_min: the point and the objective there.
struct Minimum {
  double w = 0.0;
  double f = 0.0;
};

/// Brent's minimization (Brent 1973, fmin: golden section plus parabolic
/// steps) of f(w) over [lo, hi] in u = ln w.  It stops once the bracket
/// is at most kLnTol wide: below about 3e-8 relative in w the jitter
/// objectives' rounding decides every comparison, so a tighter bracket
/// buys nothing.  A parabolic step needs f finite at all three points it
/// fits (an unstable loop's rms is +inf); otherwise the step is golden.
/// A best point within a few tolerances of an end is replaced by that
/// end, evaluated at lo or hi itself, when f is no worse there, so an
/// optimum on the edge reads the end exactly.  Returns the best point
/// evaluated and f there.
template <typename F>
Minimum brent_min(F f, double lo, double hi) {
  constexpr double kLnTol = 1e-9;
  // Closest spacing between probes; the stop below fires once the best
  // point lies within 2 kMinStep of both bracket ends.
  constexpr double kMinStep = 0.25 * kLnTol;
  constexpr double kEdge = 4.0 * kLnTol;
  const double golden = 0.5 * (3.0 - std::sqrt(5.0));
  const double u_lo = std::log(lo), u_hi = std::log(hi);
  double a = u_lo, b = u_hi;
  double x = a + golden * (b - a), w = x, v = x;
  double fx = f(std::exp(x)), fw = fx, fv = fx;
  double d = 0.0, e = 0.0;  // last step and the one before it
  for (;;) {
    const double xm = 0.5 * (a + b);
    if (std::max(x - a, b - x) <= 2.0 * kMinStep) break;
    bool parabolic = false;
    if (std::abs(e) > kMinStep && std::isfinite(fx) && std::isfinite(fw) &&
        std::isfinite(fv)) {
      // Vertex of the parabola through (x, fx), (w, fw), (v, fv), as
      // x + p/q; taken only when it falls inside the bracket and moves
      // less than half the step before last.
      const double r = (x - w) * (fx - fv);
      double q = (x - v) * (fx - fw);
      double p = (x - v) * q - (x - w) * r;
      q = 2.0 * (q - r);
      if (q > 0.0) p = -p;
      q = std::abs(q);
      if (std::abs(p) < std::abs(0.5 * q * e) && p > q * (a - x) &&
          p < q * (b - x)) {
        e = d;
        d = p / q;
        const double u = x + d;
        if (u - a < 2.0 * kMinStep || b - u < 2.0 * kMinStep) {
          d = std::copysign(kMinStep, xm - x);
        }
        parabolic = true;
      }
    }
    if (!parabolic) {
      e = (x >= xm ? a : b) - x;
      d = golden * e;
    }
    const double u =
        std::abs(d) >= kMinStep ? x + d : x + std::copysign(kMinStep, d);
    const double fu = f(std::exp(u));
    if (fu <= fx) {
      (u >= x ? a : b) = x;
      v = w;
      fv = fw;
      w = x;
      fw = fx;
      x = u;
      fx = fu;
    } else {
      (u < x ? a : b) = u;
      if (fu <= fw || w == x) {
        v = w;
        fv = fw;
        w = u;
        fw = fu;
      } else if (fu <= fv || v == x || v == w) {
        v = u;
        fv = fu;
      }
    }
  }
  for (const auto& [u_end, w_end] :
       {std::pair{u_lo, lo}, std::pair{u_hi, hi}}) {
    if (std::abs(x - u_end) <= kEdge) {
      const double f_end = f(w_end);
      if (f_end <= fx) return {w_end, f_end};
    }
  }
  return {std::exp(x), fx};
}

}  // namespace

JitterOptimizationResult optimize_bandwidth_for_jitter(
    const JitterOptimizationSpec& spec) {
  HTMPLL_REQUIRE(spec.ratio_min > 0.0 && spec.ratio_max > spec.ratio_min,
                 "bandwidth search range is empty");
  const JitterQuadrature q(spec);
  const auto stable = [&](double ratio) {
    return half_rate_lambda(SamplingPllModel(make_typical_loop(
               ratio * spec.w0, spec.w0, spec.gamma))) > -1.0;
  };
  HTMPLL_REQUIRE(stable(spec.ratio_min),
                 "the loop at ratio_min is already half-rate unstable");
  // The +inf rms of an unstable loop tells the search nothing about
  // where the stable optimum lies (two +inf probes send it right), so
  // the TV search stops at the half-rate boundary.
  double tv_ratio_max = spec.ratio_max;
  if (!stable(spec.ratio_max)) {
    tv_ratio_max = bisect_stability_boundary(stable, spec.ratio_min,
                                             spec.ratio_max, 45)
                       .stable;
  }
  const double lo = spec.ratio_min * spec.w0;

  JitterOptimizationResult out;
  const Minimum tv = brent_min([&](double w) { return q.tv(w); }, lo,
                               tv_ratio_max * spec.w0);
  out.w_ug_tv = tv.w;
  out.rms_tv = tv.f;

  out.w_ug_lti = brent_min([&](double w) { return q.lti(w); }, lo,
                           spec.ratio_max * spec.w0)
                     .w;
  out.rms_at_lti_pick = q.tv(out.w_ug_lti);
  // Both searches stop at a bracket the objective can resolve, so the
  // LTI pick can score a hair below the TV optimum; it is then the
  // better TV point, which keeps penalty >= 1.
  if (out.rms_at_lti_pick < out.rms_tv) {
    out.w_ug_tv = out.w_ug_lti;
    out.rms_tv = out.rms_at_lti_pick;
  }
  out.penalty = out.rms_at_lti_pick / out.rms_tv;
  return out;
}

double output_jitter_tv(const JitterOptimizationSpec& spec, double w_ug) {
  return JitterQuadrature(spec).tv(w_ug);
}

double output_jitter_lti(const JitterOptimizationSpec& spec, double w_ug) {
  return JitterQuadrature(spec).lti(w_ug);
}

}  // namespace htmpll
