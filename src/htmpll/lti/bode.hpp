// Frequency-response utilities: dB/phase helpers, phase unwrapping, and
// the gain-crossover / phase-margin search on arbitrary responses.
//
// The search takes a std::function so it works both for rational LTI
// responses A(jw) and for the time-varying effective open-loop gain
// lambda(jw) of eq. 37, which is not rational.
#pragma once

#include <functional>
#include <optional>
#include <vector>

#include "htmpll/linalg/matrix.hpp"

namespace htmpll {

/// Response evaluated on the jw axis as a function of w (rad/s).
using FrequencyResponse = std::function<cplx(double)>;

double magnitude_db(cplx h);
double phase_deg(cplx h);

/// Unwraps a phase sequence (radians) so consecutive samples never jump
/// by more than pi.
std::vector<double> unwrap_phase(const std::vector<double>& radians);

struct CrossoverResult {
  double frequency;         ///< rad/s of |H| = 1 crossing
  double phase_margin_deg;  ///< 180 deg + unwrapped arg H at the crossing
};

/// Finds the first downward |H(jw)| = 1 crossing in [w_lo, w_hi] by a
/// 600-point log-grid scan plus bisection to 1e-10 relative in w.  The
/// phase margin is computed with the phase unwrapped along the scan
/// path from w_lo, so loops whose raw principal-value phase wraps (e.g.
/// two integrator poles plus sampling delay) are handled correctly.
std::optional<CrossoverResult> find_gain_crossover(
    const FrequencyResponse& h, double w_lo, double w_hi);

/// One Bode row: w, |H| dB, unwrapped phase deg.
struct BodePoint {
  double w;
  double mag_db;
  double phase_deg;
};

/// Samples H over a log grid and unwraps the phase along it.
std::vector<BodePoint> bode_sweep(const FrequencyResponse& h, double w_lo,
                                  double w_hi, std::size_t points);

/// Converts precomputed response samples h[i] = H(j w_grid[i]) into
/// Bode rows with the phase unwrapped along the grid, e.g. samples
/// evaluated on the pool with parallel_map (parallel/sweep.hpp).
std::vector<BodePoint> bode_points_from_samples(
    const std::vector<double>& w_grid, const CVector& h);

}  // namespace htmpll
