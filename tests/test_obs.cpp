// Instrumentation-layer suite: metrics registry semantics, span
// tracing, the disabled no-op contract, Chrome-trace export and run
// manifests.  Own binary (like test_parallel) so the whole suite can
// run under -DHTMPLL_SANITIZE=thread: the counter and span tests hammer
// the registry from the pool on purpose.
//
// The registry is process-global, so every test asserts on deltas from
// its own named metrics (unique per test) or resets explicitly.
#include <gtest/gtest.h>

#include <cstdint>
#include <fstream>
#include <numbers>
#include <sstream>
#include <string>
#include <vector>

#include "htmpll/obs/metrics.hpp"
#include "htmpll/obs/report.hpp"
#include "htmpll/obs/trace.hpp"
#include "htmpll/parallel/thread_pool.hpp"
#include "htmpll/timedomain/pll_sim.hpp"

namespace htmpll {
namespace {

/// Enables obs for one test and restores the prior state after.
struct ScopedObs {
  bool was_enabled = obs::enabled();
  explicit ScopedObs(bool on) { on ? obs::enable() : obs::disable(); }
  ~ScopedObs() { was_enabled ? obs::enable() : obs::disable(); }
};

TEST(ObsMetrics, CounterCountsOnlyWhileEnabled) {
  obs::Counter& c = obs::counter("test.gating_counter");
  const std::uint64_t before = c.value();
  {
    ScopedObs off(false);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), before);
  }
  {
    ScopedObs on(true);
    c.add();
    c.add(41);
    EXPECT_EQ(c.value(), before + 42);
  }
}

TEST(ObsMetrics, RegistryReturnsStableReferences) {
  obs::Counter& a = obs::counter("test.stable");
  obs::Counter& b = obs::counter("test.stable");
  EXPECT_EQ(&a, &b);
  // Same name as a different kind is a registration error.
  EXPECT_THROW(obs::gauge("test.stable"), std::logic_error);
  EXPECT_THROW(obs::histogram("test.stable"), std::logic_error);
}

TEST(ObsMetrics, GaugeRecordsWhileDisabled) {
  // Gauges hold configuration facts; they must survive obs being
  // enabled only after the fact (like the pool width at first use).
  ScopedObs off(false);
  obs::gauge("test.config_gauge").set(17.5);
  EXPECT_DOUBLE_EQ(obs::gauge("test.config_gauge").value(), 17.5);
}

TEST(ObsMetrics, HistogramTracksMomentsAndBuckets) {
  ScopedObs on(true);
  obs::Histogram& h = obs::histogram("test.histogram");
  h.reset();
  for (std::uint64_t v : {3ull, 3ull, 7ull, 200ull}) h.observe(v);
  EXPECT_EQ(h.count(), 4u);
  EXPECT_EQ(h.sum(), 213u);
  EXPECT_EQ(h.min(), 3u);
  EXPECT_EQ(h.max(), 200u);
  EXPECT_EQ(h.bucket(3), 2u);
  EXPECT_EQ(h.bucket(7), 1u);
  EXPECT_EQ(h.bucket(4), 0u);
  // Values past kMaxTracked land in the shared overflow bin.
  EXPECT_EQ(h.bucket(200), 1u);
  EXPECT_EQ(h.bucket(obs::Histogram::kMaxTracked + 5), 1u);
}

TEST(ObsMetrics, CountsAreExactUnderThePool) {
  ScopedObs on(true);
  obs::Counter& c = obs::counter("test.pool_counter");
  obs::Histogram& h = obs::histogram("test.pool_histogram");
  const std::uint64_t c0 = c.value();
  const std::uint64_t h0 = h.count();
  const std::size_t n = 10000;
  ThreadPool pool(4);
  pool.parallel_for(n, 1, [&](std::size_t i) {
    c.add();
    h.observe(i % 8);
  });
  EXPECT_EQ(c.value(), c0 + n);
  EXPECT_EQ(h.count(), h0 + n);
}

TEST(ObsMetrics, SnapshotFindsEveryKind) {
  ScopedObs on(true);
  obs::counter("test.snap_counter").add(5);
  obs::gauge("test.snap_gauge").set(2.5);
  obs::histogram("test.snap_hist").observe(9);
  const obs::MetricsSnapshot snap = obs::snapshot();
  ASSERT_NE(snap.find("test.snap_counter"), nullptr);
  EXPECT_EQ(snap.find("test.snap_counter")->kind, obs::MetricKind::kCounter);
  EXPECT_GE(snap.counter_value("test.snap_counter"), 5u);
  EXPECT_DOUBLE_EQ(snap.gauge_value("test.snap_gauge"), 2.5);
  ASSERT_NE(snap.find("test.snap_hist"), nullptr);
  EXPECT_GE(snap.find("test.snap_hist")->count, 1u);
  EXPECT_EQ(snap.find("missing.metric"), nullptr);
  EXPECT_EQ(snap.counter_value("missing.metric"), 0u);
  // Sorted by name: stable diffable output.
  for (std::size_t i = 1; i < snap.samples.size(); ++i) {
    EXPECT_LT(snap.samples[i - 1].name, snap.samples[i].name);
  }
}

TEST(ObsMetrics, ResetCountersKeepsGauges) {
  ScopedObs on(true);
  obs::counter("test.reset_counter").add(3);
  obs::gauge("test.reset_gauge").set(11.0);
  obs::reset_counters();
  EXPECT_EQ(obs::counter("test.reset_counter").value(), 0u);
  EXPECT_DOUBLE_EQ(obs::gauge("test.reset_gauge").value(), 11.0);
}

TEST(ObsMetrics, PoolWidthGaugeMatchesGlobalPool) {
  const double width = obs::gauge("parallel.pool_width").value();
  // The gauge is set when the global pool is first created; touch it to
  // make sure that has happened.
  ThreadPool::global().parallel_for(1, [](std::size_t) {});
  EXPECT_DOUBLE_EQ(obs::gauge("parallel.pool_width").value(),
                   static_cast<double>(ThreadPool::global().threads()));
  (void)width;
}

TEST(ObsTrace, SpansNestAndOrder) {
  ScopedObs on(true);
  obs::clear_trace();
  {
    HTMPLL_TRACE_SPAN("test.outer");
    { HTMPLL_TRACE_SPAN("test.inner"); }
  }
  const std::vector<obs::TraceEventView> events = obs::collect_trace();
  const obs::TraceEventView* outer = nullptr;
  const obs::TraceEventView* inner = nullptr;
  for (const obs::TraceEventView& e : events) {
    if (std::string(e.name) == "test.outer") outer = &e;
    if (std::string(e.name) == "test.inner") inner = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner, nullptr);
  // The inner span's interval sits inside the outer one.
  EXPECT_GE(inner->begin_ns, outer->begin_ns);
  EXPECT_LE(inner->end_ns, outer->end_ns);
  EXPECT_LE(outer->begin_ns, outer->end_ns);
  // collect_trace sorts by begin time.
  for (std::size_t i = 1; i < events.size(); ++i) {
    EXPECT_LE(events[i - 1].begin_ns, events[i].begin_ns);
  }
}

TEST(ObsTrace, DisabledSpansRecordNothing) {
  ScopedObs on(true);
  obs::clear_trace();
  obs::disable();
  { HTMPLL_TRACE_SPAN("test.should_not_appear"); }
  obs::enable();
  for (const obs::TraceEventView& e : obs::collect_trace()) {
    EXPECT_NE(std::string(e.name), "test.should_not_appear");
  }
}

TEST(ObsTrace, SummaryAggregatesPerName) {
  ScopedObs on(true);
  obs::clear_trace();
  for (int i = 0; i < 3; ++i) {
    HTMPLL_TRACE_SPAN("test.repeated");
  }
  for (const obs::SpanStats& s : obs::span_summary()) {
    if (s.name == "test.repeated") {
      EXPECT_EQ(s.count, 3u);
      EXPECT_GE(s.total_ns, s.max_ns);
      return;
    }
  }
  FAIL() << "span_summary lost the repeated span";
}

TEST(ObsTrace, SpansFromPoolWorkersAreCollected) {
  ScopedObs on(true);
  obs::clear_trace();
  ThreadPool pool(4);
  const std::size_t n = 64;
  pool.parallel_for(n, 1, [&](std::size_t) {
    HTMPLL_TRACE_SPAN("test.worker_span");
  });
  std::size_t seen = 0;
  for (const obs::TraceEventView& e : obs::collect_trace()) {
    if (std::string(e.name) == "test.worker_span") ++seen;
  }
  EXPECT_EQ(seen, n);
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

TEST(ObsTrace, ChromeTraceJsonIsWellFormed) {
  ScopedObs on(true);
  obs::clear_trace();
  {
    HTMPLL_TRACE_SPAN("test.chrome \"quoted\\name");
  }
  const std::string json = obs::chrome_trace_json();
  // Balanced braces/brackets outside strings => parseable structure.
  int braces = 0;
  int brackets = 0;
  bool in_string = false;
  for (std::size_t i = 0; i < json.size(); ++i) {
    const char ch = json[i];
    if (in_string) {
      if (ch == '\\') {
        ++i;
      } else if (ch == '"') {
        in_string = false;
      }
      continue;
    }
    if (ch == '"') in_string = true;
    if (ch == '{') ++braces;
    if (ch == '}') --braces;
    if (ch == '[') ++brackets;
    if (ch == ']') --brackets;
    EXPECT_GE(braces, 0);
    EXPECT_GE(brackets, 0);
  }
  EXPECT_FALSE(in_string);
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  // Trace-event viewer requirements.
  EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
  EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
  // The quote and backslash in the span name were escaped.
  EXPECT_NE(json.find("test.chrome \\\"quoted\\\\name"), std::string::npos);

  const std::string path = ::testing::TempDir() + "htmpll_trace_test.json";
  obs::write_chrome_trace(path);
  std::ifstream is(path);
  ASSERT_TRUE(is.good());
  std::stringstream ss;
  ss << is.rdbuf();
  EXPECT_EQ(ss.str(), json);
}

TEST(ObsReport, ManifestCarriesConfigPhasesAndMetrics) {
  ScopedObs on(true);
  obs::counter("test.manifest_counter").add(7);
  obs::RunReport report("unit_test_run");
  report.set_config("grid_points", 2000.0);
  report.set_config("mode", "exact");
  report.add_phase("sweep", 0.25);
  report.capture();
  const std::string json = report.to_json();
  EXPECT_NE(json.find("\"run\": \"unit_test_run\""), std::string::npos);
  EXPECT_NE(json.find("\"grid_points\": 2000"), std::string::npos);
  EXPECT_NE(json.find("\"mode\": \"exact\""), std::string::npos);
  EXPECT_NE(json.find("\"sweep\": 0.25"), std::string::npos);
  EXPECT_NE(json.find("test.manifest_counter"), std::string::npos);
  EXPECT_NE(json.find("\"git\""), std::string::npos);
  EXPECT_FALSE(obs::git_describe().empty());
}

TEST(ObsIntegration, SimulationFeedsTheCountersWithoutChangingResults) {
  const double w0 = 2.0 * std::numbers::pi;
  const PllParameters params = make_typical_loop(0.2 * w0, w0);

  const auto run = [&] {
    TransientConfig cfg;
    cfg.record = false;
    PllTransientSim sim(params, {}, cfg);
    sim.run_periods(50.0);
    return sim;
  };

  // Reference run with obs off, instrumented run with obs on: identical
  // physics, and the instrumented one must account for its events.
  std::uint64_t events_off;
  {
    ScopedObs off(false);
    events_off = run().event_count();
  }
  ScopedObs on(true);
  obs::Counter& pfd = obs::counter("timedomain.pfd_events");
  obs::Counter& lookups = obs::counter("timedomain.propagator_lookups");
  obs::Counter& misses = obs::counter("timedomain.propagator_misses");
  const std::uint64_t pfd0 = pfd.value();
  const std::uint64_t lk0 = lookups.value();
  PllTransientSim sim = run();
  EXPECT_EQ(sim.event_count(), events_off);
  EXPECT_EQ(pfd.value() - pfd0, sim.event_count());
  EXPECT_GE(lookups.value(), lk0 + sim.event_count());
  EXPECT_GE(lookups.value(), misses.value());
  // The per-integrator view and the global counters tell one story.
  const PropagatorCacheStats& st = sim.propagator_cache_stats();
  EXPECT_EQ(st.hits(), st.lookups - st.misses);
}

}  // namespace
}  // namespace htmpll
