// Sweep-engine benchmark: measures the parallel/batched evaluation
// paths against their naive point-wise counterparts and verifies both
// numerical contracts:
//  * the SweepRunner sweeps (1 thread and the global pool) and the
//    obs-on rerun must be BIT-IDENTICAL to the point-wise calls / the
//    obs-off grid,
//  * the eval-plan grid paths must agree with the point-wise calls to
//    <= 1e-12 relative error.
//
//   1. baseband_transfer over a 2000-point log grid: scalar loop,
//      1-thread SweepRunner, global-pool SweepRunner and the
//      compiled-plan grid API (exact and truncated lambda).
//   2. closed_loop_grid over 6 output bands (one lambda per point) vs a
//      naive nested closed_loop loop.
//   3. dense kernels: blocked HTM-sized complex matrix product and the
//      transposed-RHS LU multi-solve.
//
// Writes a machine-readable report (default BENCH_sweep.json).
//
// Usage: bench_sweep [output.json] [--check]
//   --check: additionally exit non-zero if the global-pool sweep is
//            slower than the 1-thread sweep with a pool >= 4 wide, or
//            the plan grid is slower than 0.97x the point-wise loop.
#include <algorithm>
#include <cstring>
#include <iostream>
#include <limits>
#include <numbers>
#include <string>
#include <thread>

#include "bench_common.hpp"
#include "htmpll/core/sampling_pll.hpp"
#include "htmpll/linalg/lu.hpp"
#include "htmpll/linalg/matrix.hpp"
#include "htmpll/obs/diag.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/obs/report.hpp"
#include "htmpll/obs/trace.hpp"
#include "htmpll/parallel/sweep.hpp"
#include "htmpll/parallel/thread_pool.hpp"
#include "htmpll/util/grid.hpp"
#include "htmpll/util/table.hpp"

namespace {

using namespace htmpll;
using bench::Json;
using bench::time_best_of;

bool bit_identical(const CVector& a, const CVector& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

double max_rel_err(const CVector& got, const CVector& want) {
  double worst = got.size() == want.size()
                     ? 0.0
                     : std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
    const double scale = std::max(1e-300, std::abs(want[i]));
    worst = std::max(worst, std::abs(got[i] - want[i]) / scale);
  }
  return worst;
}

/// Deterministic pseudo-random complex fill (no global RNG state).
CMatrix random_matrix(std::size_t n) {
  CMatrix m(n, n);
  std::uint64_t state = 0x9e3779b97f4a7c15ull;
  auto next = [&state]() {
    state = state * 6364136223846793005ull + 1442695040888963407ull;
    return static_cast<double>(state >> 11) / 9007199254740992.0 - 0.5;
  };
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) m(i, j) = cplx{next(), next()};
    m(i, i) += cplx{4.0, 0.0};  // keep it comfortably non-singular
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_sweep.json";
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--check") {
      check = true;
    } else {
      out_path = argv[i];
    }
  }

  const double w0 = 2.0 * std::numbers::pi;
  const PllParameters params = make_typical_loop(0.1 * w0, w0);
  const SamplingPllModel exact(params);
  SamplingPllOptions trunc_opts;
  trunc_opts.lambda_method = LambdaMethod::kTruncated;
  trunc_opts.truncation = 16;
  const SamplingPllModel truncated(params, HarmonicCoefficients(cplx{1.0}),
                                   trunc_opts);

  const std::size_t n_points = 2000;
  const std::vector<double> w_grid = logspace(1e-3 * w0, 0.49 * w0, n_points);
  const CVector s_grid = jw_grid(w_grid);

  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t pool_width = ThreadPool::global().threads();
  std::cout << "=== Sweep-engine benchmark: " << n_points
            << " grid points, pool width " << pool_width << " (hardware "
            << hw << ") ===\n\n";

  const int reps = 3;
  const auto scalar_eval = [&exact](cplx s) {
    return exact.baseband_transfer(s);
  };

  // --- 1. baseband transfer sweep, exact lambda -------------------------
  CVector r_pointwise(n_points);
  const double t_pointwise = time_best_of(reps, [&] {
    for (std::size_t i = 0; i < n_points; ++i) {
      r_pointwise[i] = exact.baseband_transfer(s_grid[i]);
    }
  });

  ThreadPool serial_pool(1);
  CVector r_serial;
  const double t_serial = time_best_of(reps, [&] {
    r_serial = SweepRunner(serial_pool).run(s_grid, scalar_eval);
  });

  CVector r_parallel;
  const double t_parallel = time_best_of(reps, [&] {
    r_parallel = SweepRunner().run(s_grid, scalar_eval);
  });

  CVector r_grid;
  const double t_grid = time_best_of(reps, [&] {
    r_grid = exact.baseband_transfer_grid(s_grid);
  });
  const double exact_plan_err = max_rel_err(r_grid, r_pointwise);

  const bool exact_identical = bit_identical(r_pointwise, r_serial) &&
                               bit_identical(r_pointwise, r_parallel);

  // --- 1b. truncated lambda ----------------------------------------------
  CVector rt_pointwise(n_points);
  const double tt_pointwise = time_best_of(reps, [&] {
    for (std::size_t i = 0; i < n_points; ++i) {
      rt_pointwise[i] = truncated.baseband_transfer(s_grid[i]);
    }
  });
  CVector rt_grid;
  const double tt_grid = time_best_of(reps, [&] {
    rt_grid = truncated.baseband_transfer_grid(s_grid);
  });
  const double trunc_plan_err = max_rel_err(rt_grid, rt_pointwise);

  // --- 2. multi-band closed loop ---------------------------------------
  const std::vector<int> bands = {-2, -1, 0, 1, 2, 3};
  const std::size_t n_band_points = 400;
  const CVector s_band = jw_grid(logspace(1e-3 * w0, 0.49 * w0,
                                          n_band_points));
  std::vector<CVector> cl_naive(bands.size(), CVector(n_band_points));
  const double t_cl_naive = time_best_of(reps, [&] {
    for (std::size_t b = 0; b < bands.size(); ++b) {
      for (std::size_t i = 0; i < n_band_points; ++i) {
        cl_naive[b][i] = exact.closed_loop(bands[b], s_band[i]);
      }
    }
  });
  std::vector<CVector> cl_grid;
  const double t_cl_grid = time_best_of(reps, [&] {
    cl_grid = exact.closed_loop_grid(bands, s_band);
  });
  double cl_plan_err = cl_grid.size() == bands.size()
                           ? 0.0
                           : std::numeric_limits<double>::infinity();
  for (std::size_t b = 0; b < bands.size() && b < cl_grid.size(); ++b) {
    cl_plan_err = std::max(cl_plan_err, max_rel_err(cl_grid[b], cl_naive[b]));
  }

  // --- 3. dense kernels -------------------------------------------------
  const std::size_t dim = 129;  // truncation 64 HTM
  const CMatrix a = random_matrix(dim);
  const CMatrix b = random_matrix(dim);
  CMatrix prod(1, 1);
  const double t_matmul = time_best_of(reps, [&] { prod = a * b; });
  const CLu lu(a);
  CMatrix solved(1, 1);
  const double t_solve = time_best_of(reps, [&] { solved = lu.solve(b); });
  // Touch the results so the work cannot be optimized away.
  const double checksum = std::abs(prod(0, 0)) + std::abs(solved(0, 0));

  // --- 4. instrumentation overhead -------------------------------------
  // Same workload, obs off vs obs on.  The enabled run bounds the cost
  // of every instrumentation site from above; the disabled run is the
  // production path scripts/check_overhead.sh gates at < 1%.  The
  // overhead is a *difference* of two sub-millisecond timings, so use
  // the median of a larger sample instead of min-of-N: the minima of
  // the two sides can land on different machine states and bias the
  // subtraction either way.
  const bool obs_was_enabled = obs::enabled();
  const int overhead_reps = 15;
  obs::disable();
  CVector r_obs;
  r_obs = exact.baseband_transfer_grid(s_grid);  // warm-up, untimed
  const double t_obs_off = bench::time_median_of(overhead_reps, [&] {
    r_obs = exact.baseband_transfer_grid(s_grid);
  });
  obs::enable();
  r_obs = exact.baseband_transfer_grid(s_grid);  // warm-up, untimed
  const double t_obs_on = bench::time_median_of(overhead_reps, [&] {
    r_obs = exact.baseband_transfer_grid(s_grid);
  });
  const double obs_delta = t_obs_on - t_obs_off;
  const double obs_fraction = obs_delta / t_obs_off;
  // The plan path is deterministic, so instrumentation must not change
  // a single bit of its result.
  const bool obs_identical = bit_identical(r_grid, r_obs);

  // --- 5. instrumented telemetry pass -----------------------------------
  // One clean re-run of each phase with obs enabled; the counters and
  // spans it accumulates become the report's "telemetry" section, the
  // Chrome trace and the run manifest.
  obs::reset_counters();
  obs::clear_trace();
  std::vector<std::pair<std::string, double>> phases;
  bench::run_phase(phases, "exact_grid",
                   [&] { r_grid = exact.baseband_transfer_grid(s_grid); });
  bench::run_phase(phases, "truncated_grid", [&] {
    rt_grid = truncated.baseband_transfer_grid(s_grid);
  });
  bench::run_phase(phases, "closed_loop_grid",
                   [&] { cl_grid = exact.closed_loop_grid(bands, s_band); });
  bench::run_phase(phases, "dense_kernels", [&] {
    prod = a * b;
    solved = lu.solve(b);
  });

  // --- report -----------------------------------------------------------
  Table t({"case", "time_s", "vs_baseline", "bit_identical"});
  auto row = [&t](const std::string& name, double time, double base,
                  bool same) {
    t.add_row({name, Table::fmt(time), Table::fmt(base / time),
               same ? "yes" : "NO"});
  };
  row("exact pointwise (baseline)", t_pointwise, t_pointwise, true);
  row("exact SweepRunner 1 thread", t_serial, t_pointwise, exact_identical);
  row("exact SweepRunner pool", t_parallel, t_pointwise, exact_identical);
  row("exact grid (eval plan)", t_grid, t_pointwise,
      exact_plan_err <= 1e-12);
  row("trunc pointwise (baseline)", tt_pointwise, tt_pointwise, true);
  row("trunc grid (eval plan)", tt_grid, tt_pointwise,
      trunc_plan_err <= 1e-12);
  row("closed_loop 6-band pointwise", t_cl_naive, t_cl_naive, true);
  row("closed_loop_grid eval plan", t_cl_grid, t_cl_naive,
      cl_plan_err <= 1e-12);
  t.print(std::cout);
  std::cout << "\neval-plan max relative error vs pointwise: exact "
            << exact_plan_err << ", truncated " << trunc_plan_err
            << ", closed-loop " << cl_plan_err << "\n";
  std::cout << "\ndense " << dim << "x" << dim << " complex: blocked product "
            << t_matmul << " s, LU multi-solve " << t_solve
            << " s  (checksum " << checksum << ")\n";
  std::cout << "instrumentation: off " << t_obs_off << " s, on " << t_obs_on
            << " s (delta " << obs_delta << " s, "
            << 100.0 * obs_fraction << "%)\n";

  const bool all_identical = exact_identical && obs_identical;
  const double plan_err =
      std::max({exact_plan_err, trunc_plan_err, cl_plan_err});
  const bool plan_within_tol = plan_err <= 1e-12;
  // The worst plan-vs-point-wise spot check feeds the manifest's
  // "health" gauges (after the telemetry-pass reset, before capture).
  obs::diag_gauge_max(obs::HealthGauge::kMaxPlanSpotCheckError, plan_err);
  std::cout << "\nsweeps and obs rerun bit-identical: "
            << (all_identical ? "yes" : "NO")
            << ", plan within 1e-12: " << (plan_within_tol ? "yes" : "NO")
            << "\n";

  Json report = Json::object();
  report.set("bench", Json::string("sweep_engine"))
      .set("grid_points", Json::number(static_cast<double>(n_points)))
      .set("hardware_threads", Json::number(static_cast<double>(hw)))
      .set("pool_threads", Json::number(static_cast<double>(pool_width)));
  Json sweeps = Json::object();
  sweeps.set("exact_pointwise_s", Json::number(t_pointwise))
      .set("exact_sweep_serial_s", Json::number(t_serial))
      .set("exact_sweep_pool_s", Json::number(t_parallel))
      .set("exact_grid_api_s", Json::number(t_grid))
      .set("pool_speedup_vs_serial", Json::number(t_serial / t_parallel))
      .set("grid_speedup_vs_pointwise", Json::number(t_pointwise / t_grid))
      .set("exact_plan_max_rel_err", Json::number(exact_plan_err))
      .set("truncated_pointwise_s", Json::number(tt_pointwise))
      .set("truncated_grid_api_s", Json::number(tt_grid))
      .set("truncated_grid_speedup", Json::number(tt_pointwise / tt_grid))
      .set("truncated_plan_max_rel_err", Json::number(trunc_plan_err));
  report.set("baseband_sweep", sweeps);
  Json cl = Json::object();
  cl.set("bands", Json::number(static_cast<double>(bands.size())))
      .set("grid_points", Json::number(static_cast<double>(n_band_points)))
      .set("pointwise_s", Json::number(t_cl_naive))
      .set("grid_s", Json::number(t_cl_grid))
      .set("speedup", Json::number(t_cl_naive / t_cl_grid))
      .set("plan_max_rel_err", Json::number(cl_plan_err));
  report.set("closed_loop_multiband", cl);
  Json dense = Json::object();
  dense.set("dim", Json::number(static_cast<double>(dim)))
      .set("blocked_product_s", Json::number(t_matmul))
      .set("lu_multi_solve_s", Json::number(t_solve));
  report.set("dense_kernels", dense);
  Json overhead = Json::object();
  overhead.set("workload", Json::string("exact baseband_transfer_grid"))
      .set("reps", Json::number(static_cast<double>(overhead_reps)))
      .set("estimator", Json::string("median"))
      .set("disabled_s", Json::number(t_obs_off))
      .set("enabled_s", Json::number(t_obs_on))
      .set("delta_s", Json::number(obs_delta))
      .set("fraction", Json::number(obs_fraction));
  report.set("obs_overhead", overhead);
  report.set("telemetry", bench::telemetry_json(phases));
  report.set("bit_identical", Json::boolean(all_identical));
  report.set("plan_within_tolerance", Json::boolean(plan_within_tol));
  report.write_file(out_path);
  std::cout << "wrote " << out_path << "\n";

  const std::string trace_path = out_path + ".trace.json";
  obs::write_chrome_trace(trace_path);
  std::cout << "wrote " << trace_path << "\n";

  obs::RunReport manifest = bench::make_manifest("bench_sweep", phases);
  manifest.set_config("grid_points", static_cast<double>(n_points));
  manifest.set_config("band_grid_points",
                      static_cast<double>(n_band_points));
  manifest.set_config("bands", static_cast<double>(bands.size()));
  manifest.set_config("truncation",
                      static_cast<double>(trunc_opts.truncation));
  manifest.set_config("dense_dim", static_cast<double>(dim));
  manifest.set_config("pool_threads", static_cast<double>(pool_width));
  const std::string manifest_path = out_path + ".manifest.json";
  manifest.write_json(manifest_path);
  std::cout << "wrote " << manifest_path << "\n";

  if (!obs_was_enabled) obs::disable();

  if (!all_identical) {
    std::cerr << "FAIL: a SweepRunner sweep or the obs-on rerun is not "
                 "bit-identical to its reference\n";
    return 1;
  }
  if (!plan_within_tol) {
    std::cerr << "FAIL: an eval-plan grid differs from the point-wise "
                 "path by " << plan_err << " (> 1e-12 relative)\n";
    return 1;
  }
  if (check && pool_width >= 4 && t_parallel > t_serial) {
    std::cerr << "FAIL: pool sweep slower than 1-thread sweep with a pool "
              << pool_width << " wide\n";
    return 1;
  }
  if (check && t_pointwise / t_grid < 0.97) {
    std::cerr << "FAIL: eval-plan grid slower than 0.97x the point-wise "
                 "loop (speedup " << t_pointwise / t_grid << ")\n";
    return 1;
  }
  return 0;
}
