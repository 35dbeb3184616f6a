// Instrumentation-layer suite: metrics registry semantics, span
// tracing, the disabled no-op contract, Chrome-trace export and build
// provenance.  Own binary (like test_parallel) so the whole suite can
// run under -DHTMPLL_SANITIZE=thread: the counter and span tests hammer
// the registry from the pool on purpose.
//
// The registry is process-global, so every test asserts on deltas from
// its own named metrics (unique per test) or resets explicitly.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "htmpll/obs/metrics.hpp"
#include "htmpll/obs/report.hpp"
#include "htmpll/obs/span_stats.hpp"
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
}

TEST(ObsMetrics, GaugeRecordsWhileDisabled) {
  // Gauges hold configuration facts; they must survive obs being
  // enabled only after the fact (like the pool width at first use).
  ScopedObs off(false);
  obs::gauge("test.config_gauge").set(17.5);
  EXPECT_DOUBLE_EQ(obs::gauge("test.config_gauge").value(), 17.5);
}

TEST(ObsMetrics, CountsAreExactUnderThePool) {
  ScopedObs on(true);
  obs::Counter& c = obs::counter("test.pool_counter");
  const std::uint64_t c0 = c.value();
  const std::size_t n = 10000;
  ThreadPool pool(4);
  pool.parallel_for(n, 1, [&](std::size_t) { c.add(); });
  EXPECT_EQ(c.value(), c0 + n);
}

TEST(ObsMetrics, SnapshotFindsEveryKind) {
  ScopedObs on(true);
  obs::counter("test.snap_counter").add(5);
  obs::gauge("test.snap_gauge").set(2.5);
  const obs::MetricsSnapshot snap = obs::snapshot();
  ASSERT_NE(snap.find("test.snap_counter"), nullptr);
  EXPECT_EQ(snap.find("test.snap_counter")->kind, obs::MetricKind::kCounter);
  EXPECT_GE(snap.counter_value("test.snap_counter"), 5u);
  EXPECT_DOUBLE_EQ(snap.gauge_value("test.snap_gauge"), 2.5);
  ASSERT_NE(snap.find("test.snap_gauge"), nullptr);
  EXPECT_EQ(snap.find("test.snap_gauge")->kind, obs::MetricKind::kGauge);
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
  for (const obs::SpanAggregate& s : obs::aggregate_spans()) {
    if (s.name == "test.repeated") {
      EXPECT_EQ(s.count, 3u);
      EXPECT_GE(s.total_ns, s.max_ns);
      return;
    }
  }
  FAIL() << "aggregate_spans lost the repeated span";
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

  // A write that fails after the open (a full device) throws too.
  if (std::filesystem::exists("/dev/full")) {
    try {
      obs::write_chrome_trace("/dev/full");
      ADD_FAILURE() << "write_chrome_trace to /dev/full did not throw";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("/dev/full"), std::string::npos)
          << e.what();
    }
  }
}

TEST(ObsReport, GitDescribeIsNonEmpty) {
  // A build outside a git checkout reports "unknown", never "".
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
