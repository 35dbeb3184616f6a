// Instrumentation-layer suite: metrics registry semantics, span
// tracing, the disabled no-op contract, Chrome-trace export and build
// provenance.  Own binary (like test_parallel) so the whole suite can
// run under -DHTMPLL_SANITIZE=thread: the counter and span tests hammer
// the registry from the pool on purpose.
//
// The registry is process-global, so every test asserts on deltas from
// its own named metrics (unique per test) or resets explicitly.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <limits>
#include <numbers>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "htmpll/core/pole_search.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/obs/report.hpp"
#include "htmpll/obs/ring.hpp"
#include "htmpll/obs/span_stats.hpp"
#include "htmpll/obs/trace.hpp"
#include "htmpll/parallel/thread_pool.hpp"
#include "htmpll/timedomain/pll_sim.hpp"
#include "htmpll/timedomain/spectral.hpp"

#include "obs_scope.hpp"

namespace htmpll {
namespace {

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

TEST(ObsMetrics, GaugeRaisesOnlyWhileEnabled) {
  // A gauge keeps the worst value of a health measure seen while obs
  // records; with obs off, raise() stores nothing.
  obs::Gauge& g = obs::gauge("test.gated_gauge");
  {
    ScopedObs off(false);
    g.raise(17.5);
    EXPECT_DOUBLE_EQ(g.value(), 0.0);
  }
  ScopedObs on(true);
  g.raise(17.5);
  g.raise(3.0);  // lower: the maximum stays
  g.raise(std::numeric_limits<double>::quiet_NaN());  // ignored
  EXPECT_DOUBLE_EQ(g.value(), 17.5);
  {
    ScopedObs off(false);
    g.raise(40.0);
  }
  EXPECT_DOUBLE_EQ(g.value(), 17.5);
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
  obs::gauge("test.snap_gauge").raise(2.5);
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

TEST(ObsMetrics, ResetCountersZeroesGauges) {
  // reset_counters() opens a new window for every number obs keeps, so
  // a gauge read after it holds the worst value of that window only.
  ScopedObs on(true);
  obs::counter("test.reset_counter").add(3);
  obs::gauge("test.reset_gauge").raise(11.0);
  obs::reset_counters();
  EXPECT_EQ(obs::counter("test.reset_counter").value(), 0u);
  EXPECT_DOUBLE_EQ(obs::gauge("test.reset_gauge").value(), 0.0);
  obs::gauge("test.reset_gauge").raise(2.0);
  EXPECT_DOUBLE_EQ(obs::gauge("test.reset_gauge").value(), 2.0);
}

TEST(ObsMetrics, HealthGaugesAreTheOnlyLibraryGauges) {
  // Every gauge the library registers is a health gauge; the pool width
  // is read from ThreadPool::threads(), not from a gauge.
  ScopedObs on(true);
  ThreadPool::global().parallel_for(4, [](std::size_t) {});
  const RMatrix a{{0.0, 1.0, 0.0}, {-1.15, -0.8, 0.0}, {1.0, 1.0, 0.0}};
  const RMatrix b{{0.0}, {1.0}, {0.0}};
  const PropagatorFactory factory(a, b);
  ASSERT_TRUE(factory.is_spectral());
  const double w0 = 2.0 * std::numbers::pi;
  ASSERT_FALSE(
      closed_loop_poles(SamplingPllModel(make_typical_loop(0.1 * w0, w0)))
          .empty());
  const obs::MetricsSnapshot snap = obs::snapshot();
  const std::set<std::string> health{"core.max_pole_residual",
                                     "timedomain.max_eigenbasis_condition",
                                     "timedomain.max_eigenpair_residual"};
  std::set<std::string> seen;
  for (const obs::MetricSample& m : snap.samples) {
    if (m.kind != obs::MetricKind::kGauge || m.name.rfind("test.", 0) == 0) {
      continue;
    }
    EXPECT_EQ(health.count(m.name), 1u) << m.name;
    seen.insert(m.name);
  }
  EXPECT_EQ(seen, health);
  EXPECT_EQ(snap.find("parallel.pool_width"), nullptr);
  EXPECT_GE(snap.gauge_value("timedomain.max_eigenbasis_condition"), 1.0);
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

TEST(ObsTrace, WrappedRingCountsDroppedSpans) {
  // A thread that records more spans than its ring holds keeps the
  // newest trace_capacity() of them and counts the rest as dropped.
  ScopedObs on(true);
  obs::clear_trace();
  const std::size_t cap = obs::trace_capacity();
  const std::size_t extra = 37;
  std::thread writer([&] {
    for (std::size_t i = 0; i < cap + extra; ++i) {
      HTMPLL_TRACE_SPAN("test.wrapping_span");
    }
  });
  writer.join();
  EXPECT_EQ(obs::trace_dropped(), extra);
  std::size_t kept = 0;
  for (const obs::TraceEventView& e : obs::collect_trace()) {
    if (std::string(e.name) == "test.wrapping_span") ++kept;
  }
  EXPECT_EQ(kept, cap);
  obs::clear_trace();
  EXPECT_EQ(obs::trace_dropped(), 0u);
}

/// A ring slot of the test's own RingSet, so the ring set the library
/// keeps for spans is left alone.
struct TestRecord {
  int value = 0;
  int tid = -1;
};

struct TestSlot {
  std::atomic<int> value{-1};

  void store(int v) { value.store(v, std::memory_order_relaxed); }
  bool load(TestRecord& out) const {
    out.value = value.load(std::memory_order_relaxed);
    return out.value >= 0;
  }
};

/// Leaked like the library's sets: exiting threads mark their rings.
obs::detail::RingSet<TestSlot>& test_rings() {
  static auto* rings = new obs::detail::RingSet<TestSlot>(4);
  return *rings;
}

std::vector<TestRecord> collect_test_records() {
  std::vector<TestRecord> out;
  test_rings().collect_into(out);
  return out;
}

TEST(ObsRing, ClearFreesTheRingsOfExitedThreads) {
  // Short-lived threads (a pool built and destroyed per job) each leave
  // a ring behind.  Their records stay readable until clear(), which
  // frees their rings and keeps the live threads' ones.
  obs::detail::RingSet<TestSlot>& rings = test_rings();
  rings.clear();
  const std::size_t live = rings.ring_count();
  constexpr int kThreads = 40;
  std::vector<std::thread> threads;
  for (int i = 0; i < kThreads; ++i) {
    threads.emplace_back([i] { test_rings().local().record(i); });
  }
  for (std::thread& t : threads) t.join();

  std::vector<TestRecord> records = collect_test_records();
  ASSERT_EQ(records.size(), static_cast<std::size_t>(kThreads));
  std::set<int> values, tids;
  for (const TestRecord& r : records) {
    values.insert(r.value);
    tids.insert(r.tid);
  }
  EXPECT_EQ(values.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(tids.size(), static_cast<std::size_t>(kThreads));
  EXPECT_EQ(rings.ring_count(), live + kThreads);

  // The calling thread stays alive: its ring survives the clear.
  rings.local().record(kThreads);
  rings.clear();
  EXPECT_EQ(rings.ring_count(), std::max<std::size_t>(live, 1));
  EXPECT_TRUE(collect_test_records().empty());

  // A new thread never takes the tid of a freed ring.
  std::thread([] { test_rings().local().record(kThreads + 1); }).join();
  records = collect_test_records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_GT(records[0].tid, *tids.rbegin());
  rings.clear();
  EXPECT_EQ(rings.ring_count(), std::max<std::size_t>(live, 1));
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
}

}  // namespace
}  // namespace htmpll
