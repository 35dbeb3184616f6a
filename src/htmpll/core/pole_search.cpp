#include "htmpll/core/pole_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>

#include "htmpll/obs/diag.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll {

namespace {

bool finite(cplx z) {
  return std::isfinite(z.real()) && std::isfinite(z.imag());
}

/// Fold Im(s) into the fundamental strip (-w0/2, w0/2].  std::remainder
/// is exact (IEEE 754), so the fold neither drifts nor stalls however
/// far up the axis s lies; it returns [-w0/2, w0/2], and -w0/2 maps to
/// the strip's closed end.
cplx fold_to_strip(cplx s, double w0) {
  double im = std::remainder(s.imag(), w0);
  if (im == -0.5 * w0) im = 0.5 * w0;
  return cplx{s.real(), im};
}

/// Spacing of the doubles at |x|.
double ulp(double x) {
  const double a = std::abs(x);
  return std::nextafter(a, std::numeric_limits<double>::infinity()) - a;
}

ClosedLoopPole finish_pole(cplx s, double residual, int iterations,
                           bool converged) {
  ClosedLoopPole p;
  p.s = s;
  p.frequency = std::abs(s);
  p.damping = p.frequency > 0.0 ? -s.real() / p.frequency : 1.0;
  p.residual = residual;
  p.iterations = iterations;
  p.converged = converged;
  return p;
}

}  // namespace

std::vector<ClosedLoopPole> refine_closed_loop_poles(
    const SamplingPllModel& model, const std::vector<cplx>& seeds,
    const PoleSearchOptions& opts) {
  HTMPLL_REQUIRE(opts.max_iterations >= 1,
                 "pole search needs max_iterations >= 1");
  HTMPLL_REQUIRE(std::isfinite(opts.tolerance) && opts.tolerance > 0.0,
                 "pole search tolerance must be finite and positive");
  const double w0 = model.w0();
  const std::size_t n = seeds.size();
  std::vector<cplx> s(seeds);
  std::vector<int> iters(n, opts.max_iterations);
  std::vector<char> active(n, 1), dropped(n, 0);

  // Lockstep Newton: one batched lambda / lambda-derivative pair per
  // round advances every still-active lane.  Lanes retire on
  // convergence (|step| <= max(tol * w0, 4 ulp(|s|)): far up the jw
  // axis no step is shorter than the spacing of the doubles at s, so
  // tol * w0 alone would never retire such a lane), on a
  // degenerate/non-finite derivative, or when the proposed iterate
  // leaves the finite plane -- the last two drop the lane with a diag
  // event, keeping its final finite iterate.  A lane still active after
  // the last round hit the iteration cap and is reported unconverged.
  std::vector<std::size_t> lanes;
  CVector pts;
  for (int it = 0; it < opts.max_iterations; ++it) {
    lanes.clear();
    for (std::size_t i = 0; i < n; ++i) {
      if (active[i]) lanes.push_back(i);
    }
    if (lanes.empty()) break;
    pts.resize(lanes.size());
    for (std::size_t j = 0; j < lanes.size(); ++j) pts[j] = s[lanes[j]];
    const CVector lam = model.lambda_grid(pts);
    const CVector dlam = model.lambda_derivative_grid(pts);
    for (std::size_t j = 0; j < lanes.size(); ++j) {
      const std::size_t i = lanes[j];
      const cplx f = 1.0 + lam[j];
      const cplx df = dlam[j];
      if (!finite(df) || !finite(f) || std::abs(df) == 0.0) {
        obs::diag_event(obs::DiagReason::kPoleSearchDegenerateStep,
                        std::abs(df));
        active[i] = 0;
        dropped[i] = 1;
        iters[i] = it;
        continue;
      }
      const cplx step = f / df;
      const cplx next = s[i] - step;
      if (!finite(next)) {
        obs::diag_event(obs::DiagReason::kPoleSearchDiverged,
                        std::abs(step));
        active[i] = 0;
        dropped[i] = 1;
        iters[i] = it;
        continue;
      }
      s[i] = next;
      if (std::abs(step) <=
          std::max(opts.tolerance * w0, 4.0 * ulp(std::abs(next)))) {
        active[i] = 0;
        iters[i] = it;
      }
    }
  }

  // One batched residual pass over the folded representatives.
  CVector folded(n);
  for (std::size_t i = 0; i < n; ++i) {
    s[i] = fold_to_strip(s[i], w0);
    folded[i] = s[i];
  }
  std::vector<ClosedLoopPole> out;
  out.reserve(n);
  if (n == 0) return out;
  const CVector res = model.lambda_grid(folded);
  // Health: the worst residual a converged lane reports.
  static obs::Gauge& g_residual = obs::gauge("core.max_pole_residual");
  for (std::size_t i = 0; i < n; ++i) {
    const bool converged = !dropped[i] && !active[i];
    const double residual = std::abs(1.0 + res[i]);
    if (converged) g_residual.raise(residual);
    out.push_back(finish_pole(s[i], residual, iters[i], converged));
  }
  return out;
}

std::vector<ClosedLoopPole> closed_loop_poles(const SamplingPllModel& model,
                                              const PoleSearchOptions& opts) {
  return closed_loop_poles(
      model, ImpulseInvariantModel(model.open_loop_gain(), model.w0()), opts);
}

std::vector<ClosedLoopPole> closed_loop_poles(
    const SamplingPllModel& model, const ImpulseInvariantModel& zmodel,
    const PoleSearchOptions& opts) {
  HTMPLL_REQUIRE(model.time_invariant_vco(),
                 "pole search implemented for time-invariant VCOs");
  HTMPLL_REQUIRE(model.options().pfd_shape == PfdShape::kImpulse,
                 "pole search implemented for the impulse PFD shape");
  const double w0 = model.w0();
  HTMPLL_REQUIRE(zmodel.w0() == w0,
                 "the z-domain model must sample at the model's w0");
  const double t = 2.0 * std::numbers::pi / w0;

  // Seeds: z-domain characteristic roots mapped through s = ln(z)/T.
  std::vector<cplx> seeds;
  for (const cplx& z : zmodel.closed_loop_poles()) {
    if (std::abs(z) < 1e-12) continue;  // z = 0 maps to Re(s) = -inf
    seeds.push_back(std::log(z) / t);
  }

  std::vector<ClosedLoopPole> out =
      refine_closed_loop_poles(model, seeds, opts);
  std::sort(out.begin(), out.end(),
            [](const ClosedLoopPole& a, const ClosedLoopPole& b) {
              return a.frequency < b.frequency;
            });
  return out;
}

}  // namespace htmpll
