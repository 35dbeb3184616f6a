// Monte Carlo ensemble-engine benchmark: the lockstep SoA transient
// engine (EnsembleTransientEngine) against the per-member scalar chain
// at equal thread count.
//
//   1. headline: a 64-member held-charge-pump-noise ensemble, lockstep
//      vs scalar-forced (use_ensemble_engine = false).  Contract:
//      NoiseRunStats bitwise identical on the default path AND under the
//      forced-scalar pin (what HTMPLL_ENSEMBLE=0 sets).  Both are timed
//      and the ratio is reported, but not gated: every transient run now
//      takes the engine's exact fast paths, so the ratio measures only
//      the lockstep bucketing (~1.1-1.25x).
//   2. parity sweeps: acquisition_periods (lock-retirement path) and
//      step_response_batch (identical-member lockstep blocks) must be
//      bitwise identical to the scalar chain.
//   3. telemetry: lockstep round/batched/scalar step counters and the
//      shared-store hit rate from a counting pass.
//
// Writes a machine-readable report (default BENCH_mc.json).
//
// Usage: bench_mc [output.json] [--smoke]
//   --smoke: single-rep timing with a reduced horizon.
//   --check is accepted for symmetry with the other benches; the parity
//   gates always apply and there is no timing gate.
#include <cstring>
#include <iostream>
#include <numbers>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/obs/trace.hpp"
#include "htmpll/parallel/thread_pool.hpp"
#include "htmpll/timedomain/ensemble_sim.hpp"
#include "htmpll/timedomain/montecarlo.hpp"
#include "htmpll/util/table.hpp"

namespace {

using namespace htmpll;
using bench::Json;
using bench::time_best_of;

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

bool bits_equal(const NoiseRunStats& a, const NoiseRunStats& b) {
  return bits_equal(a.theta_mean, b.theta_mean) &&
         bits_equal(a.theta_rms, b.theta_rms) &&
         bits_equal(a.theta_peak, b.theta_peak) && a.events == b.events;
}

bool bits_equal(const std::vector<NoiseRunStats>& a,
                const std::vector<NoiseRunStats>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (!bits_equal(a[i], b[i])) return false;
  }
  return true;
}

double counter_value(const char* name) {
  return static_cast<double>(obs::counter(name).value());
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_mc.json";
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--smoke") {
      smoke = true;
    } else if (arg != "--check") {
      out_path = arg;
    }
  }

  const double w0 = 2.0 * std::numbers::pi;
  const int reps = smoke ? 1 : 3;
  const PllParameters loop = make_typical_loop(0.1 * w0, w0);
  const double sigma = 1e-4 * loop.icp;
  const std::size_t n_members = 64;
  const std::uint64_t seed = 2024;

  NoiseEnsembleOptions ensemble_opts;
  ensemble_opts.settle_periods = smoke ? 20.0 : 100.0;
  ensemble_opts.measure_periods = smoke ? 100.0 : 1000.0;
  NoiseEnsembleOptions scalar_opts = ensemble_opts;
  scalar_opts.mc.use_ensemble_engine = false;

  ThreadPool& pool = ThreadPool::global();
  std::cout << "=== Lockstep ensemble engine benchmark: " << n_members
            << "-member noise ensemble, " << pool.threads()
            << " threads ===\n\n";

  const bool obs_was_enabled = obs::enabled();
  obs::enable();
  obs::reset_counters();
  obs::clear_trace();
  std::vector<std::pair<std::string, double>> phases;

  // --- counting pass: lockstep telemetry of one ensemble run ------------
  obs::reset_counters();
  const auto stats_ensemble =
      run_noise_ensemble(loop, sigma, seed, n_members, ensemble_opts, pool);
  const double batched_steps =
      counter_value("timedomain.ensemble_batched_steps");
  const double scalar_steps =
      counter_value("timedomain.ensemble_scalar_steps");
  const double store_lookups =
      counter_value("timedomain.ensemble_store_lookups");
  const double store_misses =
      counter_value("timedomain.ensemble_store_misses");

  // --- parity: default path, forced-scalar pin, scalar chain ------------
  const auto stats_scalar =
      run_noise_ensemble(loop, sigma, seed, n_members, scalar_opts, pool);
  std::vector<NoiseRunStats> stats_pinned;
  {
    // What HTMPLL_ENSEMBLE=0 sets: the pin must route the ensemble-
    // enabled options onto the scalar chain, bit for bit.
    mc::set_ensemble_enabled(false);
    stats_pinned =
        run_noise_ensemble(loop, sigma, seed, n_members, ensemble_opts, pool);
    mc::set_ensemble_enabled(true);
  }
  const bool noise_parity = bits_equal(stats_ensemble, stats_scalar);
  const bool pin_parity = bits_equal(stats_pinned, stats_scalar);

  // Acquisition: one block with lock-retirement (mixed offsets) plus a
  // second loop to split the grouping.
  std::vector<AcquisitionCase> cases;
  const PllParameters loop2 = make_typical_loop(0.2 * w0, w0);
  for (double off : {0.0, 0.001, 0.05, 0.005, 0.02}) {
    cases.push_back({loop, off});
  }
  cases.push_back({loop2, 0.01});
  AcquisitionOptions aq_opts;
  aq_opts.max_periods = 600.0;
  AcquisitionOptions aq_scalar = aq_opts;
  aq_scalar.mc.use_ensemble_engine = false;
  bool acquisition_parity = true;
  bench::run_phase(phases, "acquisition_parity", [&] {
    const auto got = acquisition_periods(cases, aq_opts, pool);
    const auto want = acquisition_periods(cases, aq_scalar, pool);
    for (std::size_t i = 0; i < got.size(); ++i) {
      acquisition_parity =
          acquisition_parity && bits_equal(got[i], want[i]);
    }
  });

  // Step responses: repeated identical loops exercise full-width
  // lockstep blocks, the odd one out exercises the group split.
  std::vector<PllParameters> step_loops(8, loop);
  step_loops.push_back(loop2);
  MonteCarloOptions step_scalar;
  step_scalar.use_ensemble_engine = false;
  bool step_parity = true;
  bench::run_phase(phases, "step_response_parity", [&] {
    const auto got = step_response_batch(step_loops, 100, 1e-3, {}, pool);
    const auto want =
        step_response_batch(step_loops, 100, 1e-3, step_scalar, pool);
    for (std::size_t k = 0; k < got.size(); ++k) {
      step_parity = step_parity && got[k].size() == want[k].size();
      for (std::size_t i = 0; step_parity && i < got[k].size(); ++i) {
        step_parity = bits_equal(got[k][i], want[k][i]);
      }
    }
  });

  // --- headline timing: lockstep vs scalar at equal threads -------------
  double t_scalar = 0.0;
  bench::run_phase(phases, "noise_scalar", [&] {
    t_scalar = time_best_of(reps, [&] {
      run_noise_ensemble(loop, sigma, seed, n_members, scalar_opts, pool);
    });
  });
  double t_ensemble = 0.0;
  bench::run_phase(phases, "noise_ensemble", [&] {
    t_ensemble = time_best_of(reps, [&] {
      run_noise_ensemble(loop, sigma, seed, n_members, ensemble_opts, pool);
    });
  });
  const double speedup = t_scalar / t_ensemble;

  // --- console summary --------------------------------------------------
  const double steps_total = batched_steps + scalar_steps;
  Table table({"section", "metric", "value"});
  table.add_row({"noise", "scalar_s", std::to_string(t_scalar)});
  table.add_row({"noise", "ensemble_s", std::to_string(t_ensemble)});
  table.add_row({"noise", "speedup", std::to_string(speedup)});
  table.add_row({"noise", "batched member steps",
                 std::to_string(static_cast<long long>(batched_steps))});
  table.add_row({"noise", "scalar member steps",
                 std::to_string(static_cast<long long>(scalar_steps))});
  table.add_row({"noise", "store hit rate",
                 std::to_string(store_lookups > 0.0
                                    ? 1.0 - store_misses / store_lookups
                                    : 0.0)});
  table.add_row({"parity", "noise bitwise", noise_parity ? "yes" : "NO"});
  table.add_row({"parity", "forced-scalar pin bitwise",
                 pin_parity ? "yes" : "NO"});
  table.add_row({"parity", "acquisition bitwise",
                 acquisition_parity ? "yes" : "NO"});
  table.add_row({"parity", "step response bitwise",
                 step_parity ? "yes" : "NO"});
  table.print(std::cout);
  std::cout << "\nlockstep speedup " << speedup
            << "x at equal threads (informational), batched share "
            << (steps_total > 0.0 ? batched_steps / steps_total : 0.0)
            << "\n";

  // --- report -----------------------------------------------------------
  Json report = Json::object();
  report.set("benchmark", Json::string("bench_mc"));
  report.set("smoke", Json::boolean(smoke));
  Json mc = Json::object();
  mc.set("members", Json::number(static_cast<double>(n_members)));
  mc.set("threads", Json::number(static_cast<double>(pool.threads())));
  mc.set("settle_periods", Json::number(ensemble_opts.settle_periods));
  mc.set("measure_periods", Json::number(ensemble_opts.measure_periods));
  mc.set("scalar_s", Json::number(t_scalar));
  mc.set("ensemble_s", Json::number(t_ensemble));
  mc.set("ensemble_speedup_vs_scalar", Json::number(speedup));
  mc.set("batched_member_steps", Json::number(batched_steps));
  mc.set("scalar_member_steps", Json::number(scalar_steps));
  mc.set("store_lookups", Json::number(store_lookups));
  mc.set("store_misses", Json::number(store_misses));
  mc.set("noise_parity_bitwise", Json::boolean(noise_parity));
  mc.set("forced_scalar_bitwise", Json::boolean(pin_parity));
  mc.set("acquisition_parity_bitwise", Json::boolean(acquisition_parity));
  mc.set("step_response_parity_bitwise", Json::boolean(step_parity));
  report.set("mc", mc);
  report.set("telemetry", bench::telemetry_json(phases));
  report.write_file(out_path);
  std::cout << "wrote " << out_path << "\n";

  const std::string trace_path = out_path + ".trace.json";
  obs::write_chrome_trace(trace_path);
  std::cout << "wrote " << trace_path << "\n";

  obs::RunReport manifest = bench::make_manifest("bench_mc", phases);
  manifest.set_config("members", static_cast<double>(n_members));
  manifest.set_config("measure_periods", ensemble_opts.measure_periods);
  manifest.set_config("reps", static_cast<double>(reps));
  const std::string manifest_path = out_path + ".manifest.json";
  manifest.write_json(manifest_path);
  std::cout << "wrote " << manifest_path << "\n";

  if (!obs_was_enabled) obs::disable();

  bool failed = false;
  if (!noise_parity || !pin_parity) {
    std::cerr << "FAIL: noise ensemble is not bitwise identical to the "
                 "scalar chain (default "
              << (noise_parity ? "ok" : "DIFFERS") << ", forced-scalar pin "
              << (pin_parity ? "ok" : "DIFFERS") << ")\n";
    failed = true;
  }
  if (!acquisition_parity) {
    std::cerr << "FAIL: acquisition_periods differs from the scalar "
                 "chain\n";
    failed = true;
  }
  if (!step_parity) {
    std::cerr << "FAIL: step_response_batch differs from the scalar "
                 "chain\n";
    failed = true;
  }
  return failed ? 1 : 0;
}
