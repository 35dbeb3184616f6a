// Transient-engine benchmark: measures the time-domain performance
// layer (spectral step propagators, settled-state warm starts, batched
// probes) against the seed behavior and verifies its contracts:
//
//   1. Multi-frequency probe sweep, single thread: the seed baseline
//      (a replica of the probe loop with Van Loan propagators and a
//      full per-point settle) vs the cold default path (spectral
//      propagators; must agree with the seed within 1e-10 and run >= 2x
//      the seed under --check) vs the warm-start path (shared settled
//      checkpoint; must agree within the probe's small-signal
//      tolerance).
//   2. Raw event rate and propagator-build savings of a locked loop.
//   3. Thread scaling of the batched probe on the global pool, which
//      must be bit-identical to the serial sweep.
//   4. Instrumented pass: the probe sweep's "linalg.expm_evals" must
//      collapse to ~0 (the engine factors each filter block once
//      instead of running one Van Loan expm per distinct step length).
//
// Writes a machine-readable report (default BENCH_transient.json).
//
// Usage: bench_transient [output.json] [--check]
//   Always exits non-zero if the pooled sweep is not bit-identical to
//   the serial one, or if the spectral or warm-start sweeps leave
//   their tolerance.
//   --check: also exit non-zero if the spectral sweep runs under 2x
//            the seed or exceeds its expm budget, or if warm start
//            fails to beat the seed baseline.
#include <cmath>
#include <cstring>
#include <iostream>
#include <numbers>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/obs/report.hpp"
#include "htmpll/obs/trace.hpp"
#include "htmpll/parallel/thread_pool.hpp"
#include "htmpll/timedomain/probe.hpp"
#include "htmpll/util/grid.hpp"
#include "htmpll/util/table.hpp"

namespace {

using namespace htmpll;
using bench::Json;
using bench::time_best_of;

/// Replica of the probe measurement loop with the seed's configuration:
/// Van Loan (Pade expm) propagators.  The arithmetic is run_probe's
/// (the exact theta bin over the measurement window, divided by
/// theta_ref's closed-form bin), so it differs from the cold default
/// probe only in the propagator numerics.
cplx probe_seed_replica(const PllParameters& params, double omega_m,
                        const ProbeOptions& opts) {
  const double t_period = params.period();
  const double tm = 2.0 * std::numbers::pi / omega_m;

  ReferenceModulation mod;
  mod.amplitude = opts.amplitude_fraction * t_period;
  mod.omega = omega_m;
  mod.phase = 0.0;

  TransientConfig cfg;
  cfg.record = false;
  cfg.use_spectral_propagators = false;

  PllTransientSim sim(params, mod, cfg);
  const double settle = std::max(opts.settle_periods * t_period, 4.0 * tm);
  sim.run_until(settle);
  const double t0 = sim.time();
  const double width = static_cast<double>(opts.measure_periods) * tm;
  const cplx theta_bin = sim.measure_theta_bin(omega_m, width);
  return theta_bin / mod.hann_bin(omega_m, t0, width);
}

bool bit_identical(const std::vector<cplx>& a, const std::vector<cplx>& b) {
  return a.size() == b.size() &&
         std::memcmp(a.data(), b.data(), a.size() * sizeof(cplx)) == 0;
}

double max_rel_err(const std::vector<cplx>& test,
                   const std::vector<cplx>& ref) {
  double worst = 0.0;
  for (std::size_t i = 0; i < ref.size(); ++i) {
    worst = std::max(worst, std::abs(test[i] - ref[i]) / std::abs(ref[i]));
  }
  return worst;
}

std::vector<cplx> values_of(const std::vector<TransferMeasurement>& ms) {
  std::vector<cplx> out;
  out.reserve(ms.size());
  for (const TransferMeasurement& m : ms) out.push_back(m.value);
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_transient.json";
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--check") {
      check = true;
    } else {
      out_path = argv[i];
    }
  }

  const double w0 = 2.0 * std::numbers::pi;
  const PllParameters params = make_typical_loop(0.2 * w0, w0);
  const std::size_t n_points = 8;
  const std::vector<double> omegas = logspace(0.1 * w0, 0.45 * w0,
                                              n_points);
  ProbeOptions opts;
  opts.settle_periods = 300.0;

  const std::size_t hw = std::thread::hardware_concurrency();
  const std::size_t pool_width = ThreadPool::global().threads();
  std::cout << "=== Transient-engine benchmark: " << n_points
            << "-point probe sweep, pool width " << pool_width
            << " (hardware " << hw << ") ===\n\n";

  const int reps = 2;
  ThreadPool serial_pool(1);

  // --- 1. probe sweep: seed vs cold default vs warm --------------------
  std::vector<cplx> r_seed(n_points);
  const double t_seed = time_best_of(reps, [&] {
    for (std::size_t i = 0; i < n_points; ++i) {
      r_seed[i] = probe_seed_replica(params, omegas[i], opts);
    }
  });

  // Cold run on the default (spectral) backend.
  std::vector<TransferMeasurement> m_cold;
  const double t_cold = time_best_of(reps, [&] {
    m_cold = measure_baseband_transfer_many(params, omegas, opts,
                                            serial_pool);
  });
  const std::vector<cplx> r_cold = values_of(m_cold);
  const double spectral_rel_err = max_rel_err(r_cold, r_seed);
  const double spectral_tol = 1e-10;
  const bool spectral_ok = spectral_rel_err < spectral_tol;

  ProbeOptions warm_opts = opts;
  warm_opts.warm_start = true;
  std::vector<TransferMeasurement> m_warm;
  const double t_warm = time_best_of(reps, [&] {
    m_warm = measure_baseband_transfer_many(params, omegas, warm_opts,
                                            serial_pool);
  });
  double warm_max_rel_err = max_rel_err(values_of(m_warm), r_cold);
  // The probe itself is only trusted to the paper's few-percent level;
  // warm and cold runs differ by the (settled-out) modulation onset
  // transient and must agree far inside that.
  const double warm_tol = 1e-2;
  const bool warm_ok = warm_max_rel_err < warm_tol;

  const double speedup_spectral = t_seed / t_cold;
  const double speedup_warm = t_seed / t_warm;

  // --- 2. event rate and propagator savings of a locked loop ----------
  TransientConfig lock_cfg;
  lock_cfg.record = false;
  PllTransientSim lock_sim(params, {}, lock_cfg);
  const bench::WallTimer lock_timer;
  lock_sim.run_periods(2000.0);
  const double t_lock = lock_timer.seconds();
  const double events_per_sec =
      static_cast<double>(lock_sim.event_count()) / t_lock;
  const PropagatorCacheStats& st = lock_sim.propagator_cache_stats();
  const double saved_fraction = st.hit_rate();

  // --- 3. thread scaling of the batched probe -------------------------
  std::vector<TransferMeasurement> m_pool;
  const double t_pool = time_best_of(reps, [&] {
    m_pool = measure_baseband_transfer_many(params, omegas, opts);
  });
  const bool pool_identical = bit_identical(r_cold, values_of(m_pool));

  // --- 4. instrumented telemetry pass ----------------------------------
  // One clean warm probe batch plus a locked-loop run with obs enabled;
  // what they count becomes the report's "telemetry" section, the
  // Chrome trace and the run manifest.  The probe batch must drive
  // linalg.expm_evals to ~zero.
  const bool obs_was_enabled = obs::enabled();
  obs::enable();
  obs::reset_counters();
  obs::clear_trace();
  std::vector<std::pair<std::string, double>> phases;
  bench::run_phase(phases, "probe_batch", [&] {
    m_pool = measure_baseband_transfer_many(params, omegas, warm_opts);
  });
  const double probe_expm_evals =
      static_cast<double>(obs::counter("linalg.expm_evals").value());
  const double probe_eig_factorizations =
      static_cast<double>(obs::counter("linalg.eig_factorizations").value());
  bench::run_phase(phases, "locked_loop", [&] {
    PllTransientSim sim(params, {}, lock_cfg);
    sim.run_periods(500.0);
  });
  // With the spectral engine, a whole probe sweep performs at most a
  // handful of Van Loan exponentials (none in steady operation); the
  // seed performed one per cache miss (~10^4 - 10^5 per sweep).
  const double expm_evals_budget = 32.0;
  const bool expm_ok = probe_expm_evals <= expm_evals_budget;

  // --- report ----------------------------------------------------------
  Table t({"case", "time_s", "vs_seed", "note"});
  t.add_row({"seed replica (Van Loan, cold)", Table::fmt(t_seed),
             Table::fmt(1.0), "baseline"});
  t.add_row({"cold, spectral", Table::fmt(t_cold),
             Table::fmt(speedup_spectral),
             spectral_ok ? "within tolerance" : "OUT OF TOLERANCE"});
  t.add_row({"warm start", Table::fmt(t_warm), Table::fmt(speedup_warm),
             warm_ok ? "within tolerance" : "OUT OF TOLERANCE"});
  t.add_row({"cold, global pool", Table::fmt(t_pool),
             Table::fmt(t_seed / t_pool),
             pool_identical ? "bit-identical" : "NOT IDENTICAL"});
  t.print(std::cout);
  std::cout << "\nspectral cold max relative error vs the seed: "
            << spectral_rel_err << " (tolerance " << spectral_tol
            << ")\ninstrumented probe sweep: " << probe_expm_evals
            << " expm evals, " << probe_eig_factorizations
            << " eig factorizations\n";
  std::cout << "\nwarm-start max relative error vs cold: "
            << warm_max_rel_err << " (tolerance " << warm_tol << ")\n";
  std::cout << "locked loop: " << events_per_sec
            << " events/s, propagator builds " << st.misses << " of "
            << st.lookups << " lookups (" << 100.0 * saved_fraction
            << "% saved by the memo)\n";

  const std::string verdict =
      std::string(pool_identical ? "pooled sweep bit-identical"
                                 : "POOLED SWEEP NOT BIT-IDENTICAL") +
      ", " +
      (spectral_ok ? "spectral within tolerance"
                   : "SPECTRAL OUT OF TOLERANCE") +
      ", " +
      (warm_ok ? "warm-start within tolerance"
               : "WARM-START OUT OF TOLERANCE");
  std::cout << "\nverdict: " << verdict << "\n";

  Json report = Json::object();
  report.set("bench", Json::string("transient_engine"))
      .set("hardware_threads", Json::number(static_cast<double>(hw)))
      .set("pool_threads", Json::number(static_cast<double>(pool_width)));
  Json sweep = Json::object();
  sweep.set("points", Json::number(static_cast<double>(n_points)))
      .set("seed_single_entry_s", Json::number(t_seed))
      .set("cold_default_s", Json::number(t_cold))
      .set("warm_start_s", Json::number(t_warm))
      .set("pool_cold_s", Json::number(t_pool))
      .set("speedup_cache_plus_warm", Json::number(speedup_warm))
      .set("warm_max_rel_err", Json::number(warm_max_rel_err))
      .set("warm_tolerance", Json::number(warm_tol));
  report.set("probe_sweep", sweep);
  Json lock = Json::object();
  lock.set("periods", Json::number(2000.0))
      .set("events_per_sec", Json::number(events_per_sec))
      .set("expm_lookups", Json::number(static_cast<double>(st.lookups)))
      .set("expm_evaluations", Json::number(static_cast<double>(st.misses)))
      .set("expm_saved_fraction", Json::number(saved_fraction));
  report.set("locked_loop", lock);
  report.set("telemetry", bench::telemetry_json(phases));
  report.set("default_bit_identical", Json::boolean(pool_identical));
  report.set("warm_within_tolerance", Json::boolean(warm_ok));
  report.set("spectral_within_tolerance", Json::boolean(spectral_ok));
  report.set("spectral_max_rel_err", Json::number(spectral_rel_err));
  report.set("spectral_cold_speedup_vs_seed",
             Json::number(speedup_spectral));
  report.set("probe_sweep_expm_evals", Json::number(probe_expm_evals));
  report.set("probe_sweep_eig_factorizations",
             Json::number(probe_eig_factorizations));
  report.set("verdict", Json::string(verdict));
  report.write_file(out_path);
  std::cout << "wrote " << out_path << "\n";

  const std::string trace_path = out_path + ".trace.json";
  obs::write_chrome_trace(trace_path);
  std::cout << "wrote " << trace_path << "\n";

  obs::RunReport manifest = bench::make_manifest("bench_transient", phases);
  manifest.set_config("probe_points", static_cast<double>(n_points));
  manifest.set_config("settle_periods", opts.settle_periods);
  manifest.set_config("locked_loop_periods", 500.0);
  manifest.set_config("pool_threads", static_cast<double>(pool_width));
  const std::string manifest_path = out_path + ".manifest.json";
  manifest.write_json(manifest_path);
  std::cout << "wrote " << manifest_path << "\n";

  if (!obs_was_enabled) obs::disable();

  if (!pool_identical) {
    std::cerr << "FAIL: pooled probe sweep is not bit-identical to the "
                 "serial sweep\n";
    return 1;
  }
  if (!spectral_ok) {
    std::cerr << "FAIL: spectral probe disagrees with the seed probe "
                 "beyond tolerance (" << spectral_rel_err << ")\n";
    return 1;
  }
  if (!warm_ok) {
    std::cerr << "FAIL: warm-start probe disagrees with the cold probe "
                 "beyond tolerance\n";
    return 1;
  }
  if (check && speedup_warm < 1.2) {
    std::cerr << "FAIL: warm start only " << speedup_warm
              << "x vs the seed baseline\n";
    return 1;
  }
  if (check && speedup_spectral < 2.0) {
    std::cerr << "FAIL: spectral cold sweep only " << speedup_spectral
              << "x vs the seed baseline\n";
    return 1;
  }
  if (check && !expm_ok) {
    std::cerr << "FAIL: instrumented probe sweep performed "
              << probe_expm_evals << " expm evals (budget "
              << expm_evals_budget << ")\n";
    return 1;
  }
  return 0;
}
