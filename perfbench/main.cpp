// htmpll_perfbench: runs one workload for many fixed-size passes in one
// process and prints one JSON object with the raw measurements.
// perfbench/run.py launches it at pool width 1 and N and turns those
// objects into the benchmark's metrics.
//
//   htmpll_perfbench --host
//   htmpll_perfbench --workload NAME --seed N --mode MODE --seconds S
//
// Modes:
//   setup  generate inputs, spin up the pool, run one untimed warm-up
//          pass, report the set-up time and exit;
//   time   set up, then time passes for S seconds with obs disabled;
//   trace  set up, time passes with obs disabled for S/2 seconds, then
//          run passes with obs enabled for S/2 seconds, reporting
//          per-layer counters, span times and the tracing overhead.
//
// Times are reported both raw and corrected to nominal host speed with
// a reference kernel timed around every pass (see below).  Every pass's
// outputs are checked and hashed after it is timed; the hash must
// repeat across passes.  The library is driven from this one thread
// only.
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "htmpll/linalg/simd.hpp"
#include "htmpll/obs/diag.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/obs/report.hpp"
#include "htmpll/obs/span_stats.hpp"
#include "htmpll/obs/trace.hpp"
#include "htmpll/parallel/thread_pool.hpp"
#include "workloads.hpp"

namespace {

using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
         1e-6 * static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec);
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // KiB on Linux
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t m = v.size() / 2;
  return v.size() % 2 == 1 ? v[m] : 0.5 * (v[m - 1] + v[m]);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// ---- host-speed reference -------------------------------------------------
//
// A shared host runs this process at speeds that drift by up to ~1.6x
// within seconds as neighbours load the core.  The reference kernel is
// fixed work owned by the benchmark (no library code): a block of
// complex exponentials and divisions (throughput-bound, like the
// batch kernels) followed by a dependent small matrix-vector chain
// (latency-bound, like the propagator steps).  Timing it around every
// pass gives that pass's host-speed factor.

volatile double g_reference_sink = 0.0;

/// Seconds one run of the reference kernel takes.
double reference_seconds() {
  const auto t0 = Clock::now();
  double acc = 0.0;
  std::complex<double> v[256];
  for (int rep = 0; rep < 120; ++rep) {
    for (int i = 0; i < 256; ++i) {
      const double x = 1e-3 * static_cast<double>(i + rep);
      v[i] = std::exp(std::complex<double>(-x, 3.0 * x));
    }
    std::complex<double> s = 0.0;
    for (const std::complex<double>& z : v) s = s * 0.999 + z * z / (z + 1.5);
    acc += s.real();
  }
  double a[36];
  double x[6] = {1.0, 0.5, 0.25, 0.1, 0.2, 0.3};
  for (int i = 0; i < 36; ++i) a[i] = 0.1 * std::sin(static_cast<double>(i));
  for (int rep = 0; rep < 75000; ++rep) {
    double y[6];
    for (int r = 0; r < 6; ++r) {
      double t = 0.0;
      for (int c = 0; c < 6; ++c) t += a[r * 6 + c] * x[c];
      y[r] = t + 1e-3;
    }
    for (int r = 0; r < 6; ++r) x[r] = 0.9 * y[r];
  }
  g_reference_sink = acc + x[0];
  return seconds_since(t0);
}

/// Reference-kernel time on an uncontended core of the development host
/// (Xeon, AVX2, GCC 12 -O3); corrected times read as wall time there.
constexpr double kNominalReferenceSeconds = 1.9e-3;

// ---- minimal JSON output ----------------------------------------------

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c == '\n' || c == '\t') ? ' ' : c;
  }
  return out + "\"";
}

std::string number(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

/// Insertion-ordered flat JSON object builder.
class JsonObject {
 public:
  JsonObject& raw(const std::string& key, const std::string& json) {
    body_ += (body_.empty() ? "" : ", ") + quoted(key) + ": " + json;
    return *this;
  }
  JsonObject& num(const std::string& key, double v) {
    return raw(key, number(v));
  }
  JsonObject& str(const std::string& key, const std::string& v) {
    return raw(key, quoted(v));
  }
  JsonObject& boolean(const std::string& key, bool v) {
    return raw(key, v ? "true" : "false");
  }
  JsonObject& array(const std::string& key, const std::vector<double>& v) {
    std::string s = "[";
    for (std::size_t i = 0; i < v.size(); ++i) {
      s += (i ? ", " : "") + number(v[i]);
    }
    return raw(key, s + "]");
  }
  std::string dump() const { return "{" + body_ + "}"; }

 private:
  std::string body_;
};

// ---- host record --------------------------------------------------------

/// Wall time of `threads` threads each spinning through the same fixed
/// integer work at once.
double spin_seconds(unsigned threads) {
  std::atomic<std::uint64_t> sink{0};
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t] {
      std::uint64_t x = 0x9e3779b97f4a7c15ULL + t;
      for (int i = 0; i < 40'000'000; ++i) {
        x = x * 6364136223846793005ULL + 1442695040888963407ULL;
      }
      sink.fetch_add(x, std::memory_order_relaxed);
    });
  }
  for (std::thread& th : pool) th.join();
  return seconds_since(t0);
}

int print_host() {
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  const unsigned n = std::min(nproc, 4u);
  const double t1 = spin_seconds(1);
  const double tn = spin_seconds(n);
  const htmpll::simd::Isa isa = htmpll::simd::active_isa();
  JsonObject o;
  o.num("nproc", nproc)
      .num("spin_threads", n)
      .num("measured_concurrency", static_cast<double>(n) * t1 / tn)
      .str("simd_isa", htmpll::simd::isa_name(isa))
      .num("simd_lane_width", static_cast<double>(htmpll::simd::lane_width(isa)))
      .str("build_type", HTMPLL_BENCH_BUILD_TYPE)
      .str("compiler", __VERSION__)
      .str("git_describe", htmpll::obs::git_describe())
      .num("reference_ms", 1e3 * reference_seconds());
  std::printf("%s\n", o.dump().c_str());
  return 0;
}

// ---- per-layer attribution ----------------------------------------------

/// Layer a span belongs to: "bench.<layer>.*" spans name theirs, library
/// spans map by prefix.
std::string span_layer(const std::string& name) {
  std::string n = name;
  if (n.rfind("bench.", 0) == 0) {
    n = n.substr(6);
    return n.substr(0, n.find('.'));
  }
  static const std::pair<const char*, const char*> kPrefixes[] = {
      {"core.", "core"},         {"noise.", "noise"},
      {"design.", "design"},     {"probe.", "timedomain"},
      {"mc.", "timedomain"},     {"pool.", "parallel"},
      {"sweep.", "parallel"}};
  for (const auto& [prefix, layer] : kPrefixes) {
    if (n.rfind(prefix, 0) == 0) return layer;
  }
  return "other";
}

/// Sums of library counters, diag tallies and span times over the traced
/// passes.
struct TraceTotals {
  std::map<std::string, double> counters;
  std::map<std::string, double> span_total_ns;
  std::map<std::string, double> layer_self_ns;
  double simd_bailouts = 0;
  double spans_dropped = 0;
  perfbench::PassWork work;
  std::size_t passes = 0;

  void add_pass(const perfbench::PassWork& w) {
    for (const htmpll::obs::MetricSample& m : htmpll::obs::snapshot().samples) {
      if (m.kind == htmpll::obs::MetricKind::kCounter) {
        counters[m.name] += static_cast<double>(m.count);
      }
    }
    const htmpll::obs::DiagSnapshot diag = htmpll::obs::diag_snapshot();
    for (std::size_t r = 0; r < htmpll::obs::kDiagReasonCount; ++r) {
      const std::string name = htmpll::obs::diag_reason_name(
          static_cast<htmpll::obs::DiagReason>(r));
      if (name.rfind("simd_bailout.", 0) == 0) {
        simd_bailouts += static_cast<double>(diag.tally[r]);
      }
    }
    for (const htmpll::obs::SpanAggregate& a : htmpll::obs::aggregate_spans()) {
      span_total_ns[a.name] += static_cast<double>(a.total_ns);
      layer_self_ns[span_layer(a.name)] += static_cast<double>(a.self_ns);
    }
    spans_dropped += static_cast<double>(htmpll::obs::trace_dropped());
    work.grid_points += w.grid_points;
    work.pole_newton_iters += w.pole_newton_iters;
    work.probe_points += w.probe_points;
    work.mc_members += w.mc_members;
    work.sim_periods += w.sim_periods;
    ++passes;
  }

  double counter(const std::string& name) const {
    const auto it = counters.find(name);
    return it == counters.end() ? 0.0 : it->second;
  }
  double span_ns(const std::string& name) const {
    const auto it = span_total_ns.find(name);
    return it == span_total_ns.end() ? 0.0 : it->second;
  }

  /// Per-layer metrics, per pass unless the name says otherwise.
  JsonObject metrics(double cpu_per_wall, double overhead_frac) const {
    const double n = std::max<double>(1.0, static_cast<double>(passes));
    const auto per_pass_ms = [&](const std::string& span) {
      return span_ns(span) * 1e-6 / n;
    };
    const double td_ns = span_ns("bench.timedomain.probe") +
                         span_ns("bench.timedomain.mc_noise") +
                         span_ns("bench.timedomain.acquisition") +
                         span_ns("bench.timedomain.step_batch");
    const double lambda_evals = counter("core.lambda_evals");
    // Step-propagator lookups in the integrators' keyed caches and the
    // ensemble engine's shared store.
    const double lookups = counter("timedomain.propagator_lookups") +
                           counter("timedomain.ensemble_store_lookups");
    const double misses = counter("timedomain.propagator_misses") +
                          counter("timedomain.ensemble_store_misses");
    const double batched = counter("timedomain.ensemble_batched_steps");
    const double scalar = counter("timedomain.ensemble_scalar_steps");
    const double busy = counter("parallel.pool_busy_ns");
    const double width = counter("parallel.pool_width_ns");

    JsonObject o;
    o.num("core.model_build_ms", per_pass_ms("bench.core.model_build"))
        .num("core.grid_ns_per_point",
             ratio(span_ns("bench.core.grid"), work.grid_points))
        .num("core.plan_grid_points", counter("core.plan_grid_points") / n)
        .num("core.lambda_evals", lambda_evals / n)
        .num("core.scalar_lambda_frac",
             ratio(lambda_evals,
                   lambda_evals + counter("core.plan_grid_points")))
        .num("core.poles_ms", per_pass_ms("bench.core.poles"))
        .num("core.pole_newton_iters", work.pole_newton_iters / n)
        .num("core.margins_ms", per_pass_ms("bench.core.margins"))
        .num("noise.psd_grid_ms", per_pass_ms("bench.noise.psd_grid"))
        .num("noise.fold_terms", counter("noise.fold_terms") / n)
        .num("noise.ns_per_fold_term",
             ratio(span_ns("bench.noise.psd_grid"),
                   counter("noise.fold_terms")))
        .num("design.map_ms", per_pass_ms("bench.design.map"))
        .num("design.jitter_opt_ms", per_pass_ms("bench.design.jitter_opt"))
        .num("linalg.simd_bailouts", simd_bailouts / n)
        .num("linalg.eig_factorizations",
             counter("linalg.eig_factorizations") / n)
        .num("linalg.expm_evals", counter("linalg.expm_evals") / n)
        .num("timedomain.probe_point_ms",
             ratio(span_ns("bench.timedomain.probe") * 1e-6,
                   work.probe_points))
        .num("timedomain.mc_member_ms",
             ratio(span_ns("bench.timedomain.mc_noise") * 1e-6,
                   work.mc_members))
        .num("timedomain.acq_ms", per_pass_ms("bench.timedomain.acquisition"))
        .num("timedomain.step_batch_ms",
             per_pass_ms("bench.timedomain.step_batch"))
        .num("timedomain.sim_periods", work.sim_periods / n)
        .num("timedomain.pfd_events", counter("timedomain.pfd_events") / n)
        .num("timedomain.propagator_lookups", lookups / n)
        .num("timedomain.sim_periods_per_s",
             ratio(work.sim_periods, td_ns * 1e-9))
        .num("timedomain.ns_per_pfd_event",
             ratio(td_ns, counter("timedomain.pfd_events")))
        .num("timedomain.propagator_hit_rate",
             ratio(lookups - misses, lookups))
        .num("timedomain.spectral_builds",
             counter("timedomain.spectral_propagators") / n)
        .num("timedomain.pade_fallbacks",
             counter("timedomain.pade_fallbacks") / n)
        .num("timedomain.ensemble_batched_frac",
             ratio(batched, batched + scalar))
        .num("timedomain.ensemble_store_miss_rate",
             ratio(counter("timedomain.ensemble_store_misses"),
                   counter("timedomain.ensemble_store_lookups")))
        .num("parallel.pool_utilization", ratio(busy, width))
        .num("parallel.pool_wait_ms", (width - busy) * 1e-6 / n)
        .num("parallel.jobs", counter("parallel.pool_jobs") / n)
        .num("parallel.inline_jobs", counter("parallel.pool_jobs_inline") / n)
        .num("parallel.cpu_per_wall", cpu_per_wall)
        .num("obs.trace_overhead_frac", overhead_frac)
        .num("obs.spans_dropped", spans_dropped);
    for (const char* layer :
         {"core", "noise", "design", "timedomain", "parallel"}) {
      const auto it = layer_self_ns.find(layer);
      o.num(std::string(layer) + ".self_ms",
            (it == layer_self_ns.end() ? 0.0 : it->second) * 1e-6 / n);
    }
    return o;
  }
};

// ---- workload run ---------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  std::string mode = "time";
  double seconds = 1.0;
};

struct PassLog {
  std::vector<double> ms;
  std::vector<double> ref_ms;  ///< reference kernel around each pass
  std::size_t failed = 0;
  std::size_t hash_mismatches = 0;
  double max_rel_err = 0.0;
  std::string failure;
  double cpu_s = 0.0;
  double wall_s = 0.0;
};

/// Runs timed passes for `budget_s` seconds (at least one).  `before`
/// and `after` bracket each timed pass; the check runs after `after`.
template <class Before, class After>
void run_passes(perfbench::Workload& w, std::uint64_t expected_hash,
                double budget_s, PassLog& log, Before&& before,
                After&& after) {
  const double cpu0 = cpu_seconds();
  const auto start = Clock::now();
  double ref_before = reference_seconds();
  do {
    before();
    const auto t0 = Clock::now();
    w.run_pass();
    log.ms.push_back(seconds_since(t0) * 1e3);
    after();
    const double ref_after = reference_seconds();
    log.ref_ms.push_back(0.5e3 * (ref_before + ref_after));
    ref_before = ref_after;
    const perfbench::PassCheck c = w.check(false);
    log.max_rel_err = std::max(log.max_rel_err, c.max_rel_err);
    if (!c.ok) {
      ++log.failed;
      if (log.failure.empty()) log.failure = c.failure;
    }
    if (c.hash != expected_hash) ++log.hash_mismatches;
  } while (seconds_since(start) < budget_s);
  log.wall_s += seconds_since(start);
  log.cpu_s += cpu_seconds() - cpu0;
}

/// Wall time scaled to nominal host speed: multiplied by the nominal
/// reference time over the reference time measured around it.
double corrected(double wall, double ref_ms) {
  return wall * (1e3 * kNominalReferenceSeconds) / ref_ms;
}

std::vector<double> corrected_ms(const PassLog& log) {
  std::vector<double> out(log.ms.size());
  for (std::size_t i = 0; i < out.size(); ++i) {
    out[i] = corrected(log.ms[i], log.ref_ms[i]);
  }
  return out;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(v));
  return buf;
}

int run_workload(const Args& args) {
  const double ref_before = reference_seconds();
  const auto start = Clock::now();
  std::unique_ptr<perfbench::Workload> w =
      perfbench::make_workload(args.workload, args.seed);
  htmpll::ThreadPool& pool = htmpll::ThreadPool::global();
  w->run_pass();  // warm-up: lazy init, first-touch, propagator caches
  const double setup_s = seconds_since(start);
  const double setup_ref_ms = 0.5e3 * (ref_before + reference_seconds());
  const perfbench::PassCheck warm = w->check(true);

  JsonObject o;
  o.str("workload", args.workload)
      .num("seed", static_cast<double>(args.seed))
      .num("width", static_cast<double>(pool.threads()))
      .num("setup_s", corrected(setup_s, setup_ref_ms))
      .num("raw_setup_s", setup_s)
      .str("hash", hex(warm.hash))
      .boolean("warmup_ok", warm.ok)
      .str("warmup_failure", warm.failure);
  double max_rel_err = warm.max_rel_err;

  if (args.mode != "setup") {
    const double budget =
        args.mode == "trace" ? 0.5 * args.seconds : args.seconds;
    PassLog plain;
    run_passes(*w, warm.hash, budget, plain, [] {}, [] {});
    PassLog traced;
    TraceTotals totals;
    if (args.mode == "trace") {
      // Obs is on only around run_pass(), so the check's pointwise calls
      // stay out of the counters.
      run_passes(
          *w, warm.hash, budget, traced,
          [] {
            htmpll::obs::reset_counters();
            htmpll::obs::clear_trace();
            htmpll::obs::enable();
          },
          [&] {
            htmpll::obs::disable();
            totals.add_pass(w->work());
          });
    }
    const std::size_t passes = plain.ms.size() + traced.ms.size();
    max_rel_err =
        std::max({max_rel_err, plain.max_rel_err, traced.max_rel_err});
    o.num("passes", static_cast<double>(passes))
        .num("failed", static_cast<double>(plain.failed + traced.failed))
        .num("hash_mismatches",
             static_cast<double>(plain.hash_mismatches +
                                 traced.hash_mismatches))
        .str("failure", plain.failure.empty() ? traced.failure : plain.failure)
        .array("pass_ms", corrected_ms(plain))
        .array("raw_pass_ms", plain.ms);
    if (args.mode == "trace") {
      const std::vector<double> traced_ms = corrected_ms(traced);
      const double overhead =
          ratio(median(traced_ms), median(corrected_ms(plain))) - 1.0;
      o.array("traced_pass_ms", traced_ms)
          .raw("layers",
               totals.metrics(ratio(traced.cpu_s, traced.wall_s), overhead)
                   .dump());
    }
  }
  o.num("max_rel_err", max_rel_err).num("peak_rss_mb", peak_rss_mib());
  std::printf("%s\n", o.dump().c_str());
  return 0;
}

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "htmpll_perfbench: %s\nusage: htmpll_perfbench --host\n"
               "       htmpll_perfbench --workload fd_design|probe_verify|"
               "mc_ensemble --seed N --mode setup|time|trace --seconds S\n",
               why.c_str());
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) try {
  Args args;
  bool host = false;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage("missing value for " + a);
      return argv[++i];
    };
    if (a == "--host") {
      host = true;
    } else if (a == "--workload") {
      args.workload = value();
    } else if (a == "--seed") {
      args.seed = std::stoull(value());
    } else if (a == "--mode") {
      args.mode = value();
    } else if (a == "--seconds") {
      args.seconds = std::stod(value());
    } else {
      usage("unknown argument " + a);
    }
  }
  if (host) return print_host();
  if (args.mode != "setup" && args.mode != "time" && args.mode != "trace") {
    usage("unknown mode '" + args.mode + "'");
  }
  return run_workload(args);
} catch (const std::exception& e) {
  std::fprintf(stderr, "htmpll_perfbench: %s\n", e.what());
  return 1;
}
