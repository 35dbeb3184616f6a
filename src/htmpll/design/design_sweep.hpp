// Design-space sweeps: batched stability analytics over a (w_ug, gamma)
// grid of loop designs.
//
// The paper's design-facing results are all sweeps of the same scalar
// quantities -- effective margins (Fig. 7), closed-loop pole
// trajectories (the RHP crossing near w_UG/w0 ~ 0.276), the half-rate
// criterion lambda(j w0/2) = -1 (Gardner-style stability charts).
// design_space_map evaluates a full grid of specs at once: the grid
// points fan out over the shared thread pool and each model's analytics
// run through its compiled eval plan (batched crossover search, masked
// lockstep Newton pole polish), so the whole map costs a handful of
// SoA kernel passes per design instead of thousands of scalar
// lambda(s) calls.
#pragma once

#include <cstddef>
#include <vector>

#include "htmpll/core/pole_search.hpp"
#include "htmpll/design/design.hpp"

namespace htmpll {

/// One (w_ug, gamma) grid point with its measured analytics.
struct DesignPoint {
  double ratio = 0.0;  ///< w_ug / w0
  double gamma = 0.0;
  DesignResult design;  ///< synthesized loop + margins + spec verdicts
  double half_rate_lambda = 0.0;  ///< lambda(j w0/2), real for real loops
  bool half_rate_stable = true;   ///< lambda(j w0/2) > -1
  /// Closed-loop poles in the fundamental strip (empty when the sweep
  /// options exclude them), sorted by ascending |s|.
  std::vector<ClosedLoopPole> poles;
};

struct DesignSweepOptions {
  bool include_poles = true;  ///< closed_loop_poles with default options
};

/// Row-major map over the sweep grid: points[g * ratios.size() + r].
struct DesignSpaceMap {
  std::vector<double> ratios;
  std::vector<double> gammas;
  std::vector<DesignPoint> points;

  const DesignPoint& at(std::size_t ratio_idx,
                        std::size_t gamma_idx) const {
    return points[gamma_idx * ratios.size() + ratio_idx];
  }
};

/// Evaluates every (ratio * w0, gamma) design of the grid: synthesis
/// under the base spec's budget, effective margins, z-domain verdict,
/// half-rate lambda, and (optionally) the closed-loop poles.  Points
/// run concurrently on the shared pool; within a point the analytics
/// are batched through the model's eval plan.
DesignSpaceMap design_space_map(const DesignSpec& base,
                                const std::vector<double>& ratios,
                                const std::vector<double>& gammas,
                                const DesignSweepOptions& opts = {});

/// A loop-family builder with the make_typical_loop /
/// make_second_order_loop signature.
using LoopBuilder = PllParameters (*)(double w_ug, double w0, double gamma);

/// Maximum stable w_UG/w0 for one loop family at one gamma, per the
/// half-rate criterion lambda(j w0/2) = -1 and per the z-domain
/// closed-loop poles (the two agree to bisection accuracy -- same
/// object via Poisson summation).  Each is the midpoint of a 45-step
/// bisect_stability_boundary bracket over [0.02, hi]: hi starts at 0.9
/// and doubles while the loop there is still stable, up to 7.2
/// (std::invalid_argument beyond).
struct StabilityBoundary {
  double lambda_ratio = 0.0;   ///< half-rate criterion boundary
  double zdomain_ratio = 0.0;  ///< z-domain pole-radius boundary
};

StabilityBoundary max_stable_crossover_ratio(LoopBuilder make, double w0,
                                             double gamma);

/// Gardner-chart row: boundaries of the classic second-order loop and
/// the paper's third-order loop at one gamma.
struct GardnerRow {
  double gamma = 0.0;
  StabilityBoundary second_order;
  StabilityBoundary third_order;
};

/// One row per gamma, computed concurrently on the shared pool.
std::vector<GardnerRow> gardner_stability_rows(
    double w0, const std::vector<double>& gammas);

}  // namespace htmpll
