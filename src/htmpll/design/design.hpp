// Loop design helpers: classical LTI synthesis and a time-varying-aware
// redesign loop driven by the effective open-loop gain lambda(s).
//
// The classical recipe places the filter zero/pole symmetrically around
// the target crossover (gamma from the target phase margin) and scales
// the charge-pump current for |A(j w_UG)| = 1.  The aware variant then
// *checks the margin the sampled loop actually has* (Fig. 7) and backs
// the bandwidth off until the effective margin meets the spec -- the
// design decision the paper argues LTI analysis gets wrong.
#pragma once

#include <vector>

#include "htmpll/core/stability.hpp"
#include "htmpll/noise/noise.hpp"
#include "htmpll/ztrans/zdomain.hpp"

namespace htmpll {

struct DesignSpec {
  double w0;                 ///< reference rate, rad/s
  double target_w_ug;        ///< desired open-loop crossover, rad/s
  double target_pm_deg;      ///< desired phase margin, degrees
  double kvco = 1.0;
  double ctot = 1e-9;        ///< loop-filter capacitance budget, farads
  /// Engineering acceptance tolerance on the measured phase margin: a
  /// design "meets spec" when PM >= target - slack.  The classical
  /// synthesis hits the LTI target exactly, so the sampled loop is
  /// always some fraction of a degree short; slack absorbs that.
  double pm_slack_deg = 1.0;
};

struct DesignResult {
  PllParameters params;
  double gamma = 0.0;            ///< zero/pole split actually used
  EffectiveMargins margins;      ///< measured LTI + effective margins
  bool z_domain_stable = false;  ///< impulse-invariant pole check
  bool meets_spec_lti = false;
  bool meets_spec_effective = false;
};

/// gamma such that atan(gamma) - atan(1/gamma) equals the requested
/// phase margin.  Requires 0 < pm < 90 deg.
double gamma_for_phase_margin(double pm_deg);

/// Classical component synthesis at an explicit (w_ug, gamma) point
/// under the spec's kvco / ctot budget -- the loop every design_* entry
/// point (and the design-space sweeps) measures.
PllParameters synthesize_loop(const DesignSpec& spec, double w_ug,
                              double gamma);

/// Synthesis plus measurement at one (w_ug, gamma) point: effective
/// margins of the sampled model, z-domain stability, spec verdicts.
DesignResult evaluate_design(const DesignSpec& spec, double w_ug,
                             double gamma);

/// The measurement half of evaluate_design, on a model already built
/// from synthesize_loop(spec, w_ug, gamma); the result records the
/// model's parameters and `gamma`.
DesignResult measure_design(const DesignSpec& spec,
                            const SamplingPllModel& model, double gamma);

/// The same measurement with the z-domain verdict read from `zmodel`,
/// the impulse-invariant model of model.open_loop_gain() at spec.w0 (its
/// rate is checked), so a caller that also seeds the pole search from it
/// solves the characteristic polynomial once.
DesignResult measure_design(const DesignSpec& spec,
                            const SamplingPllModel& model,
                            const ImpulseInvariantModel& zmodel,
                            double gamma);

/// Pure LTI synthesis at the requested crossover.
DesignResult design_classical(const DesignSpec& spec);

struct AwareDesignOptions {
  double pm_tolerance_deg = 0.25;  ///< bisection stop on the PM gap
  int max_iterations = 60;
};

/// Classical synthesis followed by bandwidth backoff until the
/// *effective* phase margin (of lambda) meets the spec.  Returns the
/// final design; `margins` records what it achieves.
DesignResult design_time_varying_aware(const DesignSpec& spec,
                                       const AwareDesignOptions& opts = {});

// ---- jitter-optimal bandwidth selection -------------------------------

/// The default spec has no noise: at least one of s_ref and s_vco must
/// be nonzero (std::invalid_argument otherwise).
struct JitterOptimizationSpec {
  double w0;                 ///< reference rate, rad/s
  PowerLawPsd s_ref;         ///< reference phase PSD
  PowerLawPsd s_vco;         ///< VCO phase PSD
  double gamma = 4.0;        ///< zero/pole split of the loop family
  double w_lo_frac = 1e-3;   ///< integration band, fractions of w0
  double w_hi_frac = 0.49;
  double ratio_min = 0.002;  ///< bandwidth search range, fractions of w0
  double ratio_max = 0.26;   ///< inside the half-rate boundary for gamma 2-6
  int fold_harmonics = 12;   ///< sideband folding depth (TV model)
  std::size_t quadrature_points = 300;
};

struct JitterOptimizationResult {
  double w_ug_tv = 0.0;        ///< optimum per the time-varying model
  double rms_tv = 0.0;         ///< output phase rms there (TV model)
  double w_ug_lti = 0.0;       ///< optimum the classical LTI model picks
  double rms_at_lti_pick = 0.0;  ///< TRUE (TV) rms at the LTI choice
  double penalty = 0.0;        ///< rms_at_lti_pick / rms_tv (>= 1)
};

/// The classic PLL bandwidth trade-off -- wide enough to clean the VCO,
/// narrow enough to not copy reference noise nor peak -- solved twice:
/// once with the classical LTI transfers and once with the time-varying
/// (folded, peaked) transfers.  The penalty quantifies what an LTI-based
/// bandwidth choice costs in real output jitter.
///
/// Each search is Brent's method in ln w_ug, stopped at a bracket of
/// 1e-9 (the objectives resolve about 3e-8 relative in w_ug); an optimum
/// on an end of the range reads that end exactly.  When the LTI pick's
/// TV rms falls below the TV search's optimum, the pick becomes the TV
/// optimum, so penalty >= 1 holds exactly.
///
/// The TV search runs on the half-rate-stable part of [ratio_min,
/// ratio_max] (bisect_stability_boundary when the loop at ratio_max is
/// unstable) and throws if the loop at ratio_min is already unstable.
/// The LTI search, blind to sampling, keeps the whole range: when it
/// picks an unstable loop, rms_at_lti_pick and penalty read +inf.
JitterOptimizationResult optimize_bandwidth_for_jitter(
    const JitterOptimizationSpec& spec);

/// Output phase rms of the loop at a specific crossover, per model.  The
/// TV rms reads +inf for a loop the half-rate criterion predicts
/// unstable (predicts_half_rate_instability).
double output_jitter_tv(const JitterOptimizationSpec& spec, double w_ug);
double output_jitter_lti(const JitterOptimizationSpec& spec, double w_ug);

}  // namespace htmpll
