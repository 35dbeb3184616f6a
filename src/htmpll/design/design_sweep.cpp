#include "htmpll/design/design_sweep.hpp"

#include <functional>

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
  // lambda and the poles; one z-domain model, whose characteristic roots
  // are solved once, serves the z-domain verdict and the pole seeds.
  const SamplingPllModel model(
      synthesize_loop(base, ratio * base.w0, gamma));
  const ImpulseInvariantModel zmodel(model.open_loop_gain(), base.w0);
  DesignPoint pt;
  pt.ratio = ratio;
  pt.gamma = gamma;
  pt.design = measure_design(base, model, zmodel, gamma);
  pt.half_rate_lambda = half_rate_lambda(model);
  pt.half_rate_stable = pt.half_rate_lambda > -1.0;

  if (opts.include_poles) {
    pt.poles = closed_loop_poles(model, zmodel);
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
                                             double gamma) {
  HTMPLL_REQUIRE(make != nullptr, "loop builder must be provided");
  // The search starts on [0.02, 0.9] and doubles its high end while the
  // loop there is still stable (the second-order loop at gamma 8 and
  // 12); the cap stops a loop that never goes unstable.
  constexpr double kRatioLo = 0.02;
  constexpr double kRatioHi = 0.9;
  constexpr double kRatioCap = 8.0;
  constexpr int kIterations = 45;
  const auto boundary = [](const std::function<bool(double)>& stable_at) {
    double hi = kRatioHi;
    while (stable_at(hi)) {
      hi *= 2.0;
      HTMPLL_REQUIRE(hi <= kRatioCap,
                     "no stability boundary below w_UG/w0 = 8");
    }
    return bisect_stability_boundary(stable_at, kRatioLo, hi, kIterations)
        .midpoint();
  };
  StabilityBoundary out;
  out.lambda_ratio = boundary([&](double r) {
    return half_rate_lambda(SamplingPllModel(make(r * w0, w0, gamma))) > -1.0;
  });
  out.zdomain_ratio = boundary([&](double r) {
    return ImpulseInvariantModel(make(r * w0, w0, gamma).open_loop_gain(), w0)
        .is_stable();
  });
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
