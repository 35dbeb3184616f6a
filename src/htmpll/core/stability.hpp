// Stability analysis of the sampled PLL via the effective open-loop gain
// lambda(s) -- the paper's Fig. 7 machinery.
//
// lambda(jw) is periodic in w with period w0 (shifting s by j w0 permutes
// the aliasing sum), so its gain crossover is searched on (0, w0/2].  The
// phase margin read there is the quantity the paper shows collapsing as
// w_UG/w0 grows, while classical LTI analysis (on A alone) predicts a
// constant margin.
#pragma once

#include <cstddef>
#include <functional>

#include "htmpll/core/sampling_pll.hpp"

namespace htmpll {

struct EffectiveMargins {
  // Classical LTI analysis of A(jw).
  double lti_crossover = 0.0;         ///< w_UG, rad/s
  double lti_phase_margin_deg = 0.0;
  bool lti_found = false;
  // Time-varying analysis of lambda(jw).
  double eff_crossover = 0.0;         ///< w_UG,eff, rad/s
  double eff_phase_margin_deg = 0.0;
  bool eff_found = false;
};

/// Gain crossovers and phase margins of A and lambda: the first
/// downward |H(jw)| = 1 crossing, as find_gain_crossover defines it,
/// over [1e-5, 1e3] w0 for A and [1e-5, 0.5] w0 for lambda.  Each is
/// bracketed on a log grid of 8 points per decade and solved to 1e-12
/// relative in w by a derivative-free bracketed root solve of
/// ln|H| = 0 in ln w (lambda through the model's compiled plan, A
/// point-wise); the phase margin unwraps the phase along the bracket
/// grid from the window's low end.  Agrees with find_gain_crossover to
/// its 1e-10 tolerance; a loop with no such crossing reports not found.
EffectiveMargins effective_margins(const SamplingPllModel& model);

struct ClosedLoopSummary {
  double ref_level_db = 0.0;   ///< |H_00| at the low-frequency end
  double peak_db = 0.0;        ///< max |H_00| in dB over the scan
  double peak_freq = 0.0;      ///< rad/s of the peak
  double peaking_db = 0.0;     ///< peak_db - ref_level_db
  double bw_3db = 0.0;         ///< -3 dB (from ref level) bandwidth, rad/s
  bool bw_found = false;
};

/// Sweeps |H_00(jw)| over (w0*1e-4, w0/2) and summarizes peaking and
/// bandwidth -- the behaviors Fig. 6 shows worsening with w_UG/w0.
ClosedLoopSummary closed_loop_summary(const SamplingPllModel& model,
                                      std::size_t grid_points = 800);

/// lambda(j w0/2), which is real for real loops: the sampled loop sits on
/// the edge of oscillation at half the reference rate when this reaches
/// -1 (the time-varying analogue of Gardner's stability limit).
double half_rate_lambda(const SamplingPllModel& model);

/// True when the half-rate criterion alone already predicts instability:
/// the negation of half_rate_lambda(model) > -1, so a NaN lambda reads
/// unstable.
bool predicts_half_rate_instability(const SamplingPllModel& model);

/// Bracket of a stability boundary in w_UG/w0: the loop is stable at
/// `stable` and unstable at `unstable`.
struct StabilityBracket {
  double stable = 0.0;
  double unstable = 0.0;

  double midpoint() const { return 0.5 * (stable + unstable); }
};

/// The one stability-boundary search: `iterations` bisection steps of
/// the predicate `stable_at` on the ratio w_UG/w0 over [lo, hi].  Each
/// midpoint replaces the stable end when stable_at(mid) holds and the
/// unstable end otherwise.  Requires a non-empty predicate, finite
/// 0 < lo < hi, iterations >= 1, and a range that brackets a boundary:
/// stable_at(lo) true and stable_at(hi) false (std::invalid_argument
/// otherwise), so an end of the range is never reported as a boundary.
StabilityBracket bisect_stability_boundary(
    const std::function<bool(double)>& stable_at, double lo, double hi,
    int iterations);

}  // namespace htmpll
