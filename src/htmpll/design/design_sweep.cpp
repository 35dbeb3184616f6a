#include "htmpll/design/design_sweep.hpp"

#include "htmpll/core/stability.hpp"
#include "htmpll/obs/trace.hpp"
#include "htmpll/parallel/sweep.hpp"
#include "htmpll/util/check.hpp"
#include "htmpll/ztrans/zdomain.hpp"

namespace htmpll {

namespace {

DesignPoint evaluate_point(const DesignSpec& base, double ratio,
                           double gamma, const DesignSweepOptions& opts) {
  // One model per point serves the design verdicts, the half-rate
  // lambda and the poles.
  const SamplingPllModel model(
      synthesize_loop(base, ratio * base.w0, gamma));
  DesignPoint pt;
  pt.ratio = ratio;
  pt.gamma = gamma;
  pt.design = measure_design(base, model, gamma);
  pt.half_rate_lambda = half_rate_lambda(model);
  pt.half_rate_stable = pt.half_rate_lambda > -1.0;

  if (opts.include_poles) {
    pt.poles = closed_loop_poles(model);
  }
  return pt;
}

}  // namespace

DesignSpaceMap design_space_map(const DesignSpec& base,
                                const std::vector<double>& ratios,
                                const std::vector<double>& gammas,
                                const DesignSweepOptions& opts) {
  HTMPLL_REQUIRE(!ratios.empty() && !gammas.empty(),
                 "design_space_map needs a non-empty grid");
  for (double r : ratios) {
    HTMPLL_REQUIRE(r > 0.0 && r < 0.5,
                   "crossover ratios must lie in (0, 0.5): beyond w0/2 "
                   "the loop cannot be sampled-stable");
  }
  HTMPLL_TRACE_SPAN("design.space_map");

  DesignSpaceMap map;
  map.ratios = ratios;
  map.gammas = gammas;
  const std::size_t n = ratios.size() * gammas.size();
  // Grid points fan out over the pool; each point's own grid calls run
  // inline on its worker (nested pool calls never deadlock).
  map.points = parallel_map<DesignPoint>(n, [&](std::size_t i) {
    const std::size_t r = i % ratios.size();
    const std::size_t g = i / ratios.size();
    return evaluate_point(base, ratios[r], gammas[g], opts);
  });
  return map;
}

StabilityBoundary max_stable_crossover_ratio(LoopBuilder make, double w0,
                                             double gamma, double ratio_lo,
                                             double ratio_hi,
                                             int iterations) {
  const HalfRateBracket b =
      bisect_half_rate_boundary(make, w0, gamma, ratio_lo, ratio_hi,
                                iterations);
  StabilityBoundary out;
  out.lambda_ratio = 0.5 * (b.stable + b.unstable);
  double lo = ratio_lo, hi = ratio_hi;
  for (int it = 0; it < iterations; ++it) {
    const double mid = 0.5 * (lo + hi);
    const ImpulseInvariantModel zm(make(mid * w0, w0, gamma).open_loop_gain(),
                                   w0);
    (zm.is_stable() ? lo : hi) = mid;
  }
  out.zdomain_ratio = 0.5 * (lo + hi);
  return out;
}

std::vector<GardnerRow> gardner_stability_rows(
    double w0, const std::vector<double>& gammas) {
  HTMPLL_TRACE_SPAN("design.gardner_rows");
  return parallel_map<GardnerRow>(gammas.size(), [&](std::size_t i) {
    GardnerRow row;
    row.gamma = gammas[i];
    row.second_order =
        max_stable_crossover_ratio(make_second_order_loop, w0, gammas[i]);
    row.third_order =
        max_stable_crossover_ratio(make_typical_loop, w0, gammas[i]);
    return row;
  });
}

}  // namespace htmpll
