#include "htmpll/core/stability.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <numbers>
#include <utility>

#include "htmpll/linalg/batch_kernels.hpp"
#include "htmpll/lti/bode.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/parallel/sweep.hpp"
#include "htmpll/util/check.hpp"
#include "htmpll/util/grid.hpp"

namespace htmpll {

namespace {

struct BatchedCrossover {
  bool found = false;
  double frequency = 0.0;
  double phase_margin_deg = 0.0;
};

/// Interior probes per refinement round: the bracket shrinks by a
/// factor kRefine + 1 per batched evaluation, so reaching
/// find_gain_crossover's 1e-10 relative tolerance from a 600-point log
/// grid takes ~7 rounds instead of ~30 sequential bisection steps.
constexpr int kRefine = 16;

/// logspace(w_lo, w_hi, points), memoized per thread.  effective_margins
/// scans two windows that depend only on w0, and design sweeps call it
/// for many loops at one w0, so each thread keeps its two most recently
/// used grids; a hit returns the vector logspace built, bit for bit.
/// The reference stays valid until this thread's second later miss.
/// Builds count under "core.margin_scan_grids".
const std::vector<double>& scan_grid(double w_lo, double w_hi,
                                     std::size_t points) {
  struct Slot {
    double w_lo = 0.0;
    double w_hi = 0.0;
    std::vector<double> grid;  // empty until first filled
  };
  thread_local std::array<Slot, 2> slots;
  thread_local std::size_t last_used = 0;
  for (std::size_t k = 0; k < slots.size(); ++k) {
    Slot& slot = slots[k];
    if (slot.grid.size() == points && slot.w_lo == w_lo &&
        slot.w_hi == w_hi) {
      last_used = k;
      return slot.grid;
    }
  }
  // Built before a slot is touched, so a throwing logspace leaves the
  // memo as it was.
  std::vector<double> grid = logspace(w_lo, w_hi, points);
  static obs::Counter& builds = obs::counter("core.margin_scan_grids");
  builds.add();
  last_used = 1 - last_used;
  Slot& slot = slots[last_used];
  slot.w_lo = w_lo;
  slot.w_hi = w_hi;
  slot.grid = std::move(grid);
  return slot.grid;
}

/// Grid-first find_gain_crossover on a batch-evaluable response: one
/// chunked log-grid pass brackets the first downward |H| = 1 crossing
/// (same grid as find_gain_crossover's scan), and vectorized
/// interval-refinement rounds narrow it.  The phase margin
/// is then unwrapped along the samples already in hand -- the bracket
/// grid up to the crossing plus every refinement probe below the
/// crossover -- so only H(j wc) itself costs an extra evaluation.
/// `eval` maps a vector of frequencies to H(jw) samples (the model's
/// compiled lambda plan, or the SIMD rational kernel for A).  Agrees
/// with find_gain_crossover to the bisection tolerance (<= 1e-9
/// relative in practice).
template <class BatchEval>
BatchedCrossover crossover_batched(const BatchEval& eval, double w_lo,
                                   double w_hi,
                                   const MarginOptions& opts = {}) {
  BatchedCrossover out;
  const std::vector<double>& grid =
      scan_grid(w_lo, w_hi, opts.grid_points);

  // Bracket pass in plan-block-sized chunks with early exit at the
  // first downward |lambda| = 1 crossing: the crossover sits below the
  // top of the scan for every stable loop, so the tail of the grid
  // never needs evaluating.  The samples seen agree point-for-point
  // with a whole-grid pass (chunking never changes values).  The
  // crossing tests compare |lambda|^2 with 1, which needs no hypot.
  constexpr std::size_t kChunk = 128;
  CVector lam;
  lam.reserve(grid.size());
  std::size_t hit = 0;
  double prev_mag2 = 0.0;
  for (std::size_t base = 0; base < grid.size() && hit == 0;
       base += kChunk) {
    const std::size_t end = std::min(grid.size(), base + kChunk);
    const std::vector<double> part(grid.begin() + base, grid.begin() + end);
    const CVector lp = eval(part);
    lam.insert(lam.end(), lp.begin(), lp.end());
    for (std::size_t i = base == 0 ? 1 : base; i < end; ++i) {
      const double mag2 = std::norm(lam[i]);
      if (i == 1) prev_mag2 = std::norm(lam[0]);
      if (prev_mag2 >= 1.0 && mag2 < 1.0) {
        hit = i;
        break;
      }
      prev_mag2 = mag2;
    }
  }
  if (hit == 0) return out;

  // Refinement: split [a, b] with kRefine interior log-spaced probes
  // per round; |lambda(a)| >= 1 > |lambda(b)| is the loop invariant.
  double a = grid[hit - 1], b = grid[hit];
  std::vector<double> probes(kRefine);
  std::vector<std::pair<double, cplx>> refine_samples;
  for (int round = 0; round < 200 && (b - a) > opts.tolerance * b;
       ++round) {
    const double step = std::pow(b / a, 1.0 / (kRefine + 1));
    double w = a;
    for (int j = 0; j < kRefine; ++j) {
      w *= step;
      probes[j] = w;
    }
    const CVector lp = eval(probes);
    double na = a, nb = b;
    for (int j = 0; j < kRefine; ++j) {
      refine_samples.emplace_back(probes[static_cast<std::size_t>(j)],
                                  lp[static_cast<std::size_t>(j)]);
      if (std::norm(lp[static_cast<std::size_t>(j)]) < 1.0) {
        nb = probes[static_cast<std::size_t>(j)];
        break;
      }
      na = probes[static_cast<std::size_t>(j)];
    }
    a = na;
    b = nb;
  }
  const double wc = std::sqrt(a * b);

  // Phase margin: unwrap along the samples already evaluated -- the
  // bracket grid below the crossing, then the refinement probes below
  // wc in ascending order, then lambda(j wc) itself (the one extra
  // point).  The walk density matches find_gain_crossover's own scan
  // grid, so the unwrap lands on the same branch.
  std::sort(refine_samples.begin(), refine_samples.end(),
            [](const std::pair<double, cplx>& x,
               const std::pair<double, cplx>& y) {
              return x.first < y.first;
            });
  const CVector lam_wc = eval(std::vector<double>{wc});
  std::vector<double> raw;
  raw.reserve(hit + refine_samples.size() + 1);
  for (std::size_t i = 0; i < hit; ++i) raw.push_back(std::arg(lam[i]));
  for (const auto& [w, lw] : refine_samples) {
    if (w < wc) raw.push_back(std::arg(lw));
  }
  raw.push_back(std::arg(lam_wc[0]));
  const std::vector<double> un = unwrap_phase(raw);

  out.found = true;
  out.frequency = wc;
  out.phase_margin_deg = 180.0 + un.back() * 180.0 / std::numbers::pi;
  return out;
}

}  // namespace

EffectiveMargins effective_margins(const SamplingPllModel& model) {
  EffectiveMargins out;
  const double w0 = model.w0();
  const RationalFunction& a = model.open_loop_gain();

  // A has two poles at DC, so |A| -> infinity at low w; scan over a wide
  // window around w0.  Both crossover hunts run grid-first: lambda
  // through the model's compiled plan, A through the SIMD rational
  // kernel (<= 1e-9 relative agreement with find_gain_crossover on the
  // point-wise responses).
  const CVector& num = a.num().coefficients();
  const CVector& den = a.den().coefficients();
  const auto lti_eval = [&num, &den](const std::vector<double>& ws) {
    const std::size_t n = ws.size();
    std::vector<double> s_re(n, 0.0), out_re(n), out_im(n), tmp_re(n),
        tmp_im(n);
    CVector h(n);
    batch_rational(num.data(), num.size(), den.data(), den.size(),
                   s_re.data(), ws.data(), n, out_re.data(), out_im.data(),
                   tmp_re.data(), tmp_im.data());
    join_planes(out_re.data(), out_im.data(), n, h.data());
    return h;
  };
  if (const BatchedCrossover c =
          crossover_batched(lti_eval, w0 * 1e-5, w0 * 1e3);
      c.found) {
    out.lti_found = true;
    out.lti_crossover = c.frequency;
    out.lti_phase_margin_deg = c.phase_margin_deg;
  }
  // lambda is w0-periodic on the jw axis: the meaningful crossover lives
  // in (0, w0/2].
  const auto lambda_eval = [&model](const std::vector<double>& ws) {
    return model.lambda_grid(jw_grid(ws));
  };
  if (const BatchedCrossover c =
          crossover_batched(lambda_eval, w0 * 1e-5, 0.5 * w0);
      c.found) {
    out.eff_found = true;
    out.eff_crossover = c.frequency;
    out.eff_phase_margin_deg = c.phase_margin_deg;
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
  return half_rate_lambda(model) <= -1.0;
}

}  // namespace htmpll
