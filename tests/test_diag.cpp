// Diagnostic-layer suite: reason names and their registry counters,
// concurrent event emission (exact tallies under TSan), ring wrap-around,
// monotonic health gauges, span aggregation (percentiles + self time) on
// synthetic traces, HTMPLL_TRACE_CAP parsing, and the bit-identity
// contract (instrumentation must never change a result).
//
// Compiled into the test_obs binary (tests/CMakeLists.txt) so the whole
// observability layer runs under -DHTMPLL_SANITIZE=thread together.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "htmpll/core/sampling_pll.hpp"
#include "htmpll/noise/noise.hpp"
#include "htmpll/obs/diag.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/obs/span_stats.hpp"
#include "htmpll/obs/trace.hpp"
#include "htmpll/parallel/sweep.hpp"
#include "htmpll/timedomain/spectral.hpp"
#include "htmpll/util/grid.hpp"

#include "obs_scope.hpp"

namespace htmpll {
namespace {

std::uint64_t tally_of(obs::DiagReason reason) {
  return obs::diag_snapshot()
      .tally[static_cast<std::size_t>(reason)];
}

TEST(DiagReasons, NamesRoundTripAndAreUnique) {
  // Each reason's name is unique and names its counter in the registry,
  // so the name read back from a snapshot identifies the reason.
  (void)obs::diag_snapshot();  // registers the reasons' counters
  const obs::MetricsSnapshot snap = obs::snapshot();
  std::set<std::string> seen;
  for (std::size_t i = 0; i < obs::kDiagReasonCount; ++i) {
    const auto reason = static_cast<obs::DiagReason>(i);
    const char* name = obs::diag_reason_name(reason);
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "unknown") << "reason " << i;
    EXPECT_TRUE(seen.insert(name).second)
        << "duplicate reason name: " << name;
    const obs::MetricSample* m = snap.find(name);
    ASSERT_NE(m, nullptr) << name;
    EXPECT_EQ(m->kind, obs::MetricKind::kCounter) << name;
  }
  EXPECT_STREQ(obs::diag_reason_name(obs::DiagReason::kCount), "unknown");
}

TEST(DiagEvents, DisabledEmissionIsANoOp) {
  ScopedObs off(false);
  const std::uint64_t before =
      tally_of(obs::DiagReason::kHtmTruncationSaturated);
  obs::diag_event(obs::DiagReason::kHtmTruncationSaturated, 64.0);
  EXPECT_EQ(tally_of(obs::DiagReason::kHtmTruncationSaturated), before);
}

TEST(DiagEvents, EnabledEmissionRecordsTallyAndPayload) {
  ScopedObs on(true);
  obs::reset_counters();
  obs::diag_event(obs::DiagReason::kVcoEdgeBisectionFallback, 2.5e-9);
  obs::diag_event(obs::DiagReason::kVcoEdgeBisectionFallback, 3.5e-9);
  const obs::DiagSnapshot s = obs::diag_snapshot();
  EXPECT_EQ(
      s.tally[static_cast<std::size_t>(
          obs::DiagReason::kVcoEdgeBisectionFallback)],
      2u);
  EXPECT_EQ(s.total(), 2u);
  EXPECT_EQ(s.dropped, 0u);
  ASSERT_EQ(s.events.size(), 2u);
  EXPECT_EQ(s.events[0].reason, obs::DiagReason::kVcoEdgeBisectionFallback);
  EXPECT_DOUBLE_EQ(s.events[0].payload, 2.5e-9);
  EXPECT_DOUBLE_EQ(s.events[1].payload, 3.5e-9);
}

TEST(DiagEvents, ConcurrentEmissionKeepsTalliesExact) {
  ScopedObs on(true);
  obs::reset_counters();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  obs::Gauge& gauge = obs::gauge("test.concurrent_gauge");
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t, &gauge] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::diag_event(obs::DiagReason::kSimdBailoutGuardTrip,
                        static_cast<double>(t));
        gauge.raise(static_cast<double>(i));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const obs::DiagSnapshot s = obs::diag_snapshot();
  // Tallies are exact even though the per-thread rings wrapped.
  EXPECT_EQ(s.tally[static_cast<std::size_t>(
                obs::DiagReason::kSimdBailoutGuardTrip)],
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  // 10000 events per thread against 1024-slot rings.
  EXPECT_EQ(s.dropped,
            static_cast<std::uint64_t>(kThreads) * (kPerThread - 1024));
  EXPECT_EQ(s.events.size(), static_cast<std::size_t>(kThreads) * 1024);
  EXPECT_DOUBLE_EQ(gauge.value(), static_cast<double>(kPerThread - 1));
  obs::reset_counters();
  const obs::DiagSnapshot cleared = obs::diag_snapshot();
  EXPECT_EQ(cleared.total(), 0u);
  EXPECT_EQ(cleared.dropped, 0u);
  EXPECT_TRUE(cleared.events.empty());
  EXPECT_DOUBLE_EQ(gauge.value(), 0.0);
}

TEST(DiagEvents, WrappedRingKeepsTheNewestEvents) {
  // One thread's ring holds its last 1024 events, oldest first; the
  // older ones count as dropped while the tally counts them all.
  ScopedObs on(true);
  obs::reset_counters();
  constexpr int kEvents = 1024 + 10;
  std::thread writer([] {
    for (int i = 0; i < kEvents; ++i) {
      obs::diag_event(obs::DiagReason::kPoleSearchDiverged,
                      static_cast<double>(i));
    }
  });
  writer.join();
  const obs::DiagSnapshot s = obs::diag_snapshot();
  EXPECT_EQ(s.tally[static_cast<std::size_t>(
                obs::DiagReason::kPoleSearchDiverged)],
            static_cast<std::uint64_t>(kEvents));
  EXPECT_EQ(s.dropped, 10u);
  ASSERT_EQ(s.events.size(), 1024u);
  for (std::size_t k = 0; k < s.events.size(); ++k) {
    EXPECT_EQ(s.events[k].reason, obs::DiagReason::kPoleSearchDiverged);
    EXPECT_EQ(s.events[k].payload, static_cast<double>(k + 10)) << k;
  }
}

TEST(DiagEvents, TalliesAreTheReasonsRegistryCounters) {
  // Every reason's tally is the registry counter named by the reason,
  // so snapshot() and diag_snapshot() read the same count.
  ScopedObs on(true);
  obs::reset_counters();
  for (std::size_t r = 0; r < obs::kDiagReasonCount; ++r) {
    for (std::size_t k = 0; k <= r; ++k) {
      obs::diag_event(static_cast<obs::DiagReason>(r), 1.0);
    }
  }
  const obs::DiagSnapshot d = obs::diag_snapshot();
  const obs::MetricsSnapshot m = obs::snapshot();
  for (std::size_t r = 0; r < obs::kDiagReasonCount; ++r) {
    const char* name = obs::diag_reason_name(static_cast<obs::DiagReason>(r));
    EXPECT_EQ(d.tally[r], r + 1) << name;
    EXPECT_EQ(m.counter_value(name), d.tally[r]) << name;
    EXPECT_EQ(obs::counter(name).value(), d.tally[r]) << name;
  }
}

TEST(DiagGauges, MaxIsMonotonicAndIgnoresNan) {
  ScopedObs on(true);
  obs::reset_counters();
  obs::Gauge& g = obs::gauge("timedomain.max_eigenpair_residual");
  g.raise(1e-13);
  g.raise(1e-15);  // lower: must not regress
  g.raise(std::numeric_limits<double>::quiet_NaN());
  EXPECT_DOUBLE_EQ(
      obs::snapshot().gauge_value("timedomain.max_eigenpair_residual"),
      1e-13);
  g.raise(std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(
      obs::snapshot().gauge_value("timedomain.max_eigenpair_residual")));
}

TEST(DiagGauges, ResetCountersAlsoResetsDiagnostics) {
  ScopedObs on(true);
  obs::diag_event(obs::DiagReason::kHtmTruncationSaturated, 64.0);
  obs::gauge("timedomain.max_eigenpair_residual").raise(1.0);
  obs::reset_counters();
  const obs::DiagSnapshot s = obs::diag_snapshot();
  EXPECT_EQ(s.total(), 0u);
  EXPECT_TRUE(s.events.empty());
  EXPECT_DOUBLE_EQ(
      obs::snapshot().gauge_value("timedomain.max_eigenpair_residual"), 0.0);
}

TEST(SpanStats, PercentilesUseNearestRank) {
  // 100 synthetic spans named "p" with durations 1..100 ns, laid out
  // disjointly so no self-time subtraction applies.
  std::vector<obs::TraceEventView> events;
  for (std::uint64_t i = 0; i < 100; ++i) {
    events.push_back({"p", i * 1000, i * 1000 + (i + 1), 0});
  }
  const std::vector<obs::SpanAggregate> aggs =
      obs::aggregate_spans(std::move(events));
  ASSERT_EQ(aggs.size(), 1u);
  const obs::SpanAggregate& a = aggs[0];
  EXPECT_EQ(a.name, "p");
  EXPECT_EQ(a.count, 100u);
  EXPECT_EQ(a.total_ns, 5050u);
  EXPECT_EQ(a.self_ns, 5050u);
  EXPECT_EQ(a.min_ns, 1u);
  EXPECT_EQ(a.p50_ns, 50u);  // sorted[ceil(0.5*100)-1]
  EXPECT_EQ(a.p95_ns, 95u);  // sorted[ceil(0.95*100)-1]
  EXPECT_EQ(a.max_ns, 100u);
  EXPECT_DOUBLE_EQ(a.mean_ns(), 50.5);
}

TEST(SpanStats, SingleSpanCollapsesAllPercentiles) {
  std::vector<obs::TraceEventView> events{{"solo", 10, 52, 0}};
  const auto aggs = obs::aggregate_spans(std::move(events));
  ASSERT_EQ(aggs.size(), 1u);
  EXPECT_EQ(aggs[0].min_ns, 42u);
  EXPECT_EQ(aggs[0].p50_ns, 42u);
  EXPECT_EQ(aggs[0].p95_ns, 42u);
  EXPECT_EQ(aggs[0].max_ns, 42u);
}

TEST(SpanStats, SelfTimeSubtractsDirectChildrenOnSameThread) {
  // parent [0, 1000] with children [100, 300] and [400, 500]; the
  // grandchild [150, 250] must subtract from its direct parent (child1)
  // only.  A span on ANOTHER thread overlapping the parent must not
  // subtract.
  std::vector<obs::TraceEventView> events{
      {"parent", 0, 1000, 0},
      {"child", 100, 300, 0},
      {"grandchild", 150, 250, 0},
      {"child", 400, 500, 0},
      {"other_thread", 200, 900, 1},
  };
  const auto aggs = obs::aggregate_spans(std::move(events));
  ASSERT_EQ(aggs.size(), 4u);  // sorted by name
  auto find = [&aggs](const std::string& name) -> const obs::SpanAggregate& {
    for (const auto& a : aggs) {
      if (a.name == name) return a;
    }
    static const obs::SpanAggregate missing{};
    return missing;
  };
  EXPECT_EQ(find("parent").total_ns, 1000u);
  EXPECT_EQ(find("parent").self_ns, 700u);  // minus the two children
  EXPECT_EQ(find("child").total_ns, 300u);
  EXPECT_EQ(find("child").self_ns, 200u);  // minus the grandchild
  EXPECT_EQ(find("grandchild").self_ns, 100u);
  EXPECT_EQ(find("other_thread").self_ns, 700u);
}

TEST(SpanStats, EmptyTraceAggregatesToNothing) {
  EXPECT_TRUE(obs::aggregate_spans(std::vector<obs::TraceEventView>{})
                  .empty());
  const obs::SpanAggregate zero{};
  EXPECT_DOUBLE_EQ(zero.mean_ns(), 0.0);  // zero-count guard
}

TEST(DiagSpectral, DefectiveMatrixEmitsTaggedPadeFallback) {
  ScopedObs on(true);
  obs::reset_counters();
  // Phase-augmented system whose filter block is an exact 2x2 Jordan
  // block: a defective double eigenvalue at 0 in the factored block.
  const RMatrix a{{0.0, 1.0, 0.0}, {0.0, 0.0, 0.0}, {1.0, 0.0, 0.0}};
  const RMatrix b{{0.0}, {1.0}, {0.0}};
  PropagatorFactory factory(a, b);

  EXPECT_FALSE(factory.is_spectral());
  const obs::DiagSnapshot s = obs::diag_snapshot();
  EXPECT_EQ(s.tally[static_cast<std::size_t>(
                obs::DiagReason::kPadeFallbackDefective)],
            1u);
  // The event carries the measured kappa(V) of the rejected basis:
  // astronomically large or infinite for an exact Jordan block.
  bool found = false;
  for (const obs::DiagEvent& e : s.events) {
    if (e.reason == obs::DiagReason::kPadeFallbackDefective) {
      found = true;
      EXPECT_TRUE(e.payload > 1e14 || std::isinf(e.payload))
          << "kappa payload: " << e.payload;
    }
  }
  EXPECT_TRUE(found);
}

TEST(DiagSpectral, NearRepeatedRootsEmitFallbackTaggedByCondition) {
  ScopedObs on(true);
  // Companion block of s (s + delta): the unit Vandermonde columns of the
  // modes 0 and -delta are nearly parallel, kappa_inf(V) ~ 2 / delta.
  // Above kMaxCondition the factory rejects the basis as ill
  // conditioned, and above 1e14, where V^{-1} reconstructs rounding
  // noise, as numerically defective.  The event carries the kappa.
  using obs::DiagReason;
  struct Case {
    double delta;
    DiagReason reason, other;
  };
  for (const Case& c :
       {Case{1e-9, DiagReason::kPadeFallbackIllConditioned,
             DiagReason::kPadeFallbackDefective},
        Case{1e-15, DiagReason::kPadeFallbackDefective,
             DiagReason::kPadeFallbackIllConditioned}}) {
    obs::reset_counters();
    const RMatrix a{{0.0, 1.0, 0.0}, {0.0, -c.delta, 0.0}, {1.0, 0.0, 0.0}};
    const RMatrix b{{0.0}, {1.0}, {0.0}};
    PropagatorFactory factory(a, b);

    EXPECT_FALSE(factory.is_spectral()) << c.delta;
    const double kappa = factory.vector_condition();
    EXPECT_GT(kappa, 1.0 / c.delta);
    EXPECT_LT(kappa, 4.0 / c.delta);
    EXPECT_EQ(tally_of(c.reason), 1u) << obs::diag_reason_name(c.reason);
    EXPECT_EQ(tally_of(c.other), 0u) << obs::diag_reason_name(c.other);
    bool found = false;
    for (const obs::DiagEvent& e : obs::diag_snapshot().events) {
      if (e.reason == c.reason) {
        found = true;
        EXPECT_EQ(e.payload, kappa);
      }
    }
    EXPECT_TRUE(found) << c.delta;
  }
}

TEST(DiagSpectral, HealthyFactorizationRaisesConditionGauge) {
  ScopedObs on(true);
  obs::reset_counters();
  // Phase-augmented system with a well-conditioned companion filter
  // block: s^2 + 0.8 s + 1.15, modes -0.4 +- 0.995j.
  const RMatrix a{{0.0, 1.0, 0.0}, {-1.15, -0.8, 0.0}, {1.0, 1.0, 0.0}};
  const RMatrix b{{0.0}, {1.0}, {0.0}};
  PropagatorFactory factory(a, b);

  EXPECT_TRUE(factory.is_spectral());
  const obs::DiagSnapshot s = obs::diag_snapshot();
  EXPECT_EQ(s.tally[static_cast<std::size_t>(
                obs::DiagReason::kPadeFallbackDefective)],
            0u);
  const obs::MetricsSnapshot m = obs::snapshot();
  const double cond = m.gauge_value("timedomain.max_eigenbasis_condition");
  EXPECT_GE(cond, 1.0);
  EXPECT_DOUBLE_EQ(cond, factory.vector_condition());
  // The Vandermonde columns (1, lambda) are eigenvectors up to the
  // rounding of the roots, which the residual gauge records.
  const double residual = m.gauge_value("timedomain.max_eigenpair_residual");
  EXPECT_GT(residual, 0.0);
  EXPECT_LT(residual, 1e-15);
}

TEST(TraceCap, ParsesClampsAndRejectsGarbage) {
  constexpr std::size_t kFallback = 16384;
  EXPECT_EQ(obs::detail::parse_trace_cap(nullptr, kFallback), kFallback);
  EXPECT_EQ(obs::detail::parse_trace_cap("", kFallback), kFallback);
  EXPECT_EQ(obs::detail::parse_trace_cap("garbage", kFallback), kFallback);
  EXPECT_EQ(obs::detail::parse_trace_cap("0", kFallback), kFallback);
  EXPECT_EQ(obs::detail::parse_trace_cap("-5", kFallback), kFallback);
  EXPECT_EQ(obs::detail::parse_trace_cap("4096", kFallback), 4096u);
  EXPECT_EQ(obs::detail::parse_trace_cap("10", kFallback), 64u);  // floor
  EXPECT_EQ(obs::detail::parse_trace_cap("999999999", kFallback),
            std::size_t{1} << 22);  // ceiling
  EXPECT_GE(obs::trace_capacity(), 64u);
}

TEST(DiagIdentity, InstrumentationDoesNotChangeGridResults) {
  const double w0 = 2.0 * std::numbers::pi;
  const SamplingPllModel model(make_typical_loop(0.1 * w0, w0));
  const CVector s = jw_grid(logspace(1e-3 * w0, 0.49 * w0, 64));

  CVector off_result;
  {
    ScopedObs off(false);
    off_result = model.baseband_transfer_grid(s);
  }
  CVector on_result;
  {
    ScopedObs on(true);
    on_result = model.baseband_transfer_grid(s);
  }
  ASSERT_EQ(off_result.size(), on_result.size());
  EXPECT_EQ(std::memcmp(off_result.data(), on_result.data(),
                        off_result.size() * sizeof(cplx)),
            0);

  // The folded noise grid: plan planes, fold loops and their counters.
  const NoiseAnalysis na(model, 16);
  const PowerLawPsd s_ref{1e-14, 1e-13, 0.0};
  const PowerLawPsd s_vco{0.0, 0.0, 1e-8};
  const PowerLawPsd s_icp{1e-20, 1e-21, 0.0};
  const std::vector<double> w = logspace(1e-3 * w0, 0.49 * w0, 256);
  std::vector<double> psd_off;
  {
    ScopedObs off(false);
    psd_off = na.output_psd_grid(w, s_ref, s_vco, s_icp);
  }
  std::vector<double> psd_on;
  {
    ScopedObs on(true);
    psd_on = na.output_psd_grid(w, s_ref, s_vco, s_icp);
  }
  ASSERT_EQ(psd_off.size(), psd_on.size());
  EXPECT_EQ(std::memcmp(psd_off.data(), psd_on.data(),
                        psd_off.size() * sizeof(double)),
            0);
}

}  // namespace
}  // namespace htmpll
