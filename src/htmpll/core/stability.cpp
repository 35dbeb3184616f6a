#include "htmpll/core/stability.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>
#include <optional>
#include <vector>

#include "htmpll/lti/bode.hpp"
#include "htmpll/parallel/sweep.hpp"
#include "htmpll/util/check.hpp"
#include "htmpll/util/grid.hpp"

namespace htmpll {

namespace {

/// Bracket-pass density in grid points per decade of w.  The pass has
/// to isolate the first downward |H| = 1 crossing in one grid interval
/// and keep consecutive phase samples within pi of each other for the
/// unwrap.  On typical, second-order, Pade-delayed, LPTV-ISF and ZOH
/// loops with w_UG/w0 from 0.002 to 0.48, even one point per decade
/// brackets the same crossing as find_gain_crossover's 600-point scan,
/// but its phase steps reach 78 deg; at 8 the largest step is 20 deg, a
/// ninth of pi.  Anywhere from 1 to 12 points per decade,
/// effective_margins takes the same 9-11 us per loop.
constexpr double kPointsPerDecade = 8.0;

/// Bracket-pass points per evaluation: one decade, so the pass stops at
/// most a decade past the crossing.
constexpr std::size_t kChunk = 8;

/// The solve stops once the bracket is this narrow in ln w, i.e. 1e-12
/// relative in w: 100x inside find_gain_crossover's 1e-10 bisection
/// tolerance.
constexpr double kSolveTol = 1e-12;

/// Backstop on solve steps, which take 4 to 10 on the loops above.
constexpr int kMaxSolveSteps = 100;

/// find_gain_crossover on a batch-evaluable response, in u = ln w.  A
/// log grid of kPointsPerDecade over [w_lo, w_hi], evaluated in chunks
/// with early exit, brackets the first downward |H| = 1 crossing.  The
/// Illinois variant of regula falsi then solves g(u) = ln|H(j e^u)| = 0
/// in the bracket, keeping |H(a)| >= 1 > |H(b)|; it needs no
/// derivative, so A and lambda take the same path, also at the pole
/// multiplicity 4 the plan compiles no derivative tables for.  The phase
/// margin unwraps the phase along the grid samples below the crossing
/// and ends on H(j wc) from the last solve step, so it costs no extra
/// evaluation.  `eval` maps a vector of frequencies to H(jw) samples
/// (the model's compiled lambda plan, or A point-wise).
template <class BatchEval>
std::optional<CrossoverResult> crossover_batched(const BatchEval& eval,
                                                 double w_lo, double w_hi) {
  const double u_lo = std::log(w_lo);
  const auto steps = static_cast<std::size_t>(
      std::ceil(std::log10(w_hi / w_lo) * kPointsPerDecade));
  const double du = (std::log(w_hi) - u_lo) / static_cast<double>(steps);
  const auto u_at = [u_lo, du](std::size_t i) {
    return u_lo + du * static_cast<double>(i);
  };
  CVector h;
  std::vector<double> ws;
  std::size_t hit = 0;
  for (std::size_t base = 0; base <= steps && hit == 0; base += kChunk) {
    const std::size_t end = std::min(steps + 1, base + kChunk);
    ws.clear();
    for (std::size_t i = base; i < end; ++i) ws.push_back(std::exp(u_at(i)));
    const CVector part = eval(ws);
    h.insert(h.end(), part.begin(), part.end());
    for (std::size_t i = std::max<std::size_t>(base, 1); i < end; ++i) {
      if (std::norm(h[i - 1]) >= 1.0 && std::norm(h[i]) < 1.0) {
        hit = i;
        break;
      }
    }
  }
  if (hit == 0) return std::nullopt;

  // Illinois: a regula falsi step replaces the end on its side; when
  // the same end moves twice running, the other end's g is halved so
  // the next step lands across the root.  A NaN step (an overflowed or
  // zero |H| at an end) bisects instead, and every step keeps
  // kSolveTol / 2 from both ends, so once one end sits on the root the
  // next step closes the bracket from the other side.
  const auto log_mag = [](cplx z) { return 0.5 * std::log(std::norm(z)); };
  double ua = u_at(hit - 1), ub = u_at(hit);
  double ga = log_mag(h[hit - 1]), gb = log_mag(h[hit]);
  double wc = std::exp(ub);
  cplx hc = h[hit];
  int last_moved = 0;  // -1: a, +1: b
  for (int step = 0; step < kMaxSolveSteps && ub - ua > kSolveTol; ++step) {
    double uc = ua + (ub - ua) * ga / (ga - gb);
    if (std::isnan(uc)) uc = 0.5 * (ua + ub);
    uc = std::clamp(uc, ua + 0.5 * kSolveTol, ub - 0.5 * kSolveTol);
    wc = std::exp(uc);
    hc = eval(std::vector<double>{wc})[0];
    if (std::norm(hc) >= 1.0) {
      ua = uc;
      ga = log_mag(hc);
      if (last_moved == -1) gb *= 0.5;
      last_moved = -1;
    } else {
      ub = uc;
      gb = log_mag(hc);
      if (last_moved == 1) ga *= 0.5;
      last_moved = 1;
    }
  }

  std::vector<double> raw;
  raw.reserve(hit + 1);
  for (std::size_t i = 0; i < hit; ++i) raw.push_back(std::arg(h[i]));
  raw.push_back(std::arg(hc));
  const double phase = unwrap_phase(raw).back();
  return CrossoverResult{wc, 180.0 + phase * 180.0 / std::numbers::pi};
}

}  // namespace

EffectiveMargins effective_margins(const SamplingPllModel& model) {
  EffectiveMargins out;
  const double w0 = model.w0();
  const RationalFunction& a = model.open_loop_gain();

  // A has two poles at DC, so |A| -> infinity at low w; search a wide
  // window around w0, evaluating the rational A point-wise.
  const auto lti_eval = [&a](const std::vector<double>& ws) {
    CVector h(ws.size());
    for (std::size_t i = 0; i < ws.size(); ++i) h[i] = a(cplx{0.0, ws[i]});
    return h;
  };
  if (const auto c = crossover_batched(lti_eval, w0 * 1e-5, w0 * 1e3)) {
    out.lti_found = true;
    out.lti_crossover = c->frequency;
    out.lti_phase_margin_deg = c->phase_margin_deg;
  }
  // lambda is w0-periodic on the jw axis: the meaningful crossover lives
  // in (0, w0/2].  It runs through the model's compiled plan.
  const auto lambda_eval = [&model](const std::vector<double>& ws) {
    return model.lambda_grid(jw_grid(ws));
  };
  if (const auto c = crossover_batched(lambda_eval, w0 * 1e-5, 0.5 * w0)) {
    out.eff_found = true;
    out.eff_crossover = c->frequency;
    out.eff_phase_margin_deg = c->phase_margin_deg;
  }
  return out;
}

ClosedLoopSummary closed_loop_summary(const SamplingPllModel& model,
                                      std::size_t grid_points) {
  HTMPLL_REQUIRE(grid_points >= 8, "closed_loop_summary needs a real grid");
  const double w0 = model.w0();
  const std::vector<double> grid =
      logspace(w0 * 1e-4, 0.5 * w0, grid_points);

  // Batched H_00 evaluation (parallel over the grid); the summary scan
  // below stays sequential because the -3 dB crossing is order-dependent.
  const CVector h = model.baseband_transfer_grid(jw_grid(grid));

  ClosedLoopSummary out;
  out.ref_level_db = magnitude_db(h[0]);
  out.peak_db = out.ref_level_db;
  out.peak_freq = grid[0];

  double prev_db = out.ref_level_db;
  double prev_w = grid[0];
  const double cutoff = out.ref_level_db - 3.0103;  // half power
  for (std::size_t i = 1; i < grid.size(); ++i) {
    const double db = magnitude_db(h[i]);
    if (db > out.peak_db) {
      out.peak_db = db;
      out.peak_freq = grid[i];
    }
    if (!out.bw_found && prev_db >= cutoff && db < cutoff) {
      // Log-linear interpolation of the crossing.
      const double t = (cutoff - prev_db) / (db - prev_db);
      out.bw_3db = prev_w * std::pow(grid[i] / prev_w, t);
      out.bw_found = true;
    }
    prev_db = db;
    prev_w = grid[i];
  }
  out.peaking_db = out.peak_db - out.ref_level_db;
  return out;
}

double half_rate_lambda(const SamplingPllModel& model) {
  const cplx l = model.lambda(cplx{0.0, 0.5 * model.w0()});
  return l.real();
}

bool predicts_half_rate_instability(const SamplingPllModel& model) {
  return !(half_rate_lambda(model) > -1.0);
}

StabilityBracket bisect_stability_boundary(
    const std::function<bool(double)>& stable_at, double lo, double hi,
    int iterations) {
  HTMPLL_REQUIRE(static_cast<bool>(stable_at),
                 "boundary search needs a stability predicate");
  HTMPLL_REQUIRE(std::isfinite(lo) && std::isfinite(hi) && lo > 0.0 &&
                     hi > lo,
                 "boundary search range is empty");
  HTMPLL_REQUIRE(iterations >= 1, "boundary search needs a step");
  HTMPLL_REQUIRE(stable_at(lo),
                 "boundary search range: the loop at its low end is "
                 "unstable");
  HTMPLL_REQUIRE(!stable_at(hi),
                 "boundary search range: the loop at its high end is "
                 "stable");
  StabilityBracket b{lo, hi};
  for (int it = 0; it < iterations; ++it) {
    const double mid = b.midpoint();
    (stable_at(mid) ? b.stable : b.unstable) = mid;
  }
  return b;
}

}  // namespace htmpll
