#include "htmpll/design/design.hpp"

#include <cmath>
#include <limits>
#include <numbers>

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
  DesignResult out;
  out.gamma = gamma;
  out.params = model.parameters();
  out.margins = effective_margins(model);
  const ImpulseInvariantModel zmodel(model.open_loop_gain(), spec.w0);
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

/// Golden-section minimization on log(w_ug).
template <typename F>
double golden_min(F f, double lo, double hi, int iterations = 60) {
  const double phi = 0.5 * (std::sqrt(5.0) - 1.0);
  double a = std::log(lo), b = std::log(hi);
  double x1 = b - phi * (b - a), x2 = a + phi * (b - a);
  double f1 = f(std::exp(x1)), f2 = f(std::exp(x2));
  for (int it = 0; it < iterations; ++it) {
    if (f1 < f2) {
      b = x2;
      x2 = x1;
      f2 = f1;
      x1 = b - phi * (b - a);
      f1 = f(std::exp(x1));
    } else {
      a = x1;
      x1 = x2;
      f1 = f2;
      x2 = a + phi * (b - a);
      f2 = f(std::exp(x2));
    }
  }
  return std::exp(0.5 * (a + b));
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
  // Golden-section search cannot cross the +inf rms of unstable loops
  // (two +inf probes send it right), so the TV search stops at the
  // half-rate boundary.
  double tv_ratio_max = spec.ratio_max;
  if (!stable(spec.ratio_max)) {
    tv_ratio_max = bisect_stability_boundary(stable, spec.ratio_min,
                                             spec.ratio_max, 45)
                       .stable;
  }
  const double lo = spec.ratio_min * spec.w0;

  JitterOptimizationResult out;
  out.w_ug_tv = golden_min([&](double w) { return q.tv(w); }, lo,
                           tv_ratio_max * spec.w0);
  out.rms_tv = q.tv(out.w_ug_tv);

  out.w_ug_lti = golden_min([&](double w) { return q.lti(w); }, lo,
                            spec.ratio_max * spec.w0);
  out.rms_at_lti_pick = q.tv(out.w_ug_lti);
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
