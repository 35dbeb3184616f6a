// Diagnostic-layer suite: reason-code round trips, concurrent event
// emission (exact tallies under TSan), monotonic health gauges, span
// aggregation (percentiles + self time) on synthetic traces,
// HTMPLL_TRACE_CAP parsing, and the bit-identity contract
// (instrumentation must never change a result).
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
#include "htmpll/timedomain/loop_filter_sim.hpp"
#include "htmpll/timedomain/spectral.hpp"
#include "htmpll/util/grid.hpp"

namespace htmpll {
namespace {

/// Enables obs for one test and restores the prior state after.
struct ScopedDiagObs {
  bool was_enabled = obs::enabled();
  explicit ScopedDiagObs(bool on) { on ? obs::enable() : obs::disable(); }
  ~ScopedDiagObs() { was_enabled ? obs::enable() : obs::disable(); }
};

std::uint64_t tally_of(obs::DiagReason reason) {
  return obs::diag_snapshot()
      .tally[static_cast<std::size_t>(reason)];
}

TEST(DiagReasons, NamesRoundTripAndAreUnique) {
  std::set<std::string> seen;
  for (std::size_t i = 0; i < obs::kDiagReasonCount; ++i) {
    const auto reason = static_cast<obs::DiagReason>(i);
    const char* name = obs::diag_reason_name(reason);
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "unknown") << "reason " << i;
    EXPECT_TRUE(seen.insert(name).second)
        << "duplicate reason name: " << name;
    obs::DiagReason back = obs::DiagReason::kCount;
    EXPECT_TRUE(obs::diag_reason_from_name(name, back)) << name;
    EXPECT_EQ(back, reason);
  }
  obs::DiagReason out = obs::DiagReason::kCount;
  EXPECT_TRUE(obs::diag_reason_from_name("vco_edge.bisection_fallback", out));
  EXPECT_EQ(out, obs::DiagReason::kVcoEdgeBisectionFallback);
  out = obs::DiagReason::kCount;
  EXPECT_FALSE(obs::diag_reason_from_name("no.such.reason", out));
  EXPECT_EQ(out, obs::DiagReason::kCount);  // untouched on failure
  EXPECT_STREQ(obs::diag_reason_name(obs::DiagReason::kCount), "unknown");
}

TEST(DiagReasons, GaugeNamesAreUnique) {
  std::set<std::string> seen;
  for (std::size_t i = 0; i < obs::kHealthGaugeCount; ++i) {
    const char* name =
        obs::health_gauge_name(static_cast<obs::HealthGauge>(i));
    ASSERT_NE(name, nullptr);
    EXPECT_STRNE(name, "unknown") << "gauge " << i;
    EXPECT_TRUE(seen.insert(name).second)
        << "duplicate gauge name: " << name;
  }
}

TEST(DiagEvents, DisabledEmissionIsANoOp) {
  ScopedDiagObs off(false);
  const std::uint64_t before =
      tally_of(obs::DiagReason::kHtmTruncationSaturated);
  obs::diag_event(obs::DiagReason::kHtmTruncationSaturated, 64.0);
  EXPECT_EQ(tally_of(obs::DiagReason::kHtmTruncationSaturated), before);
}

TEST(DiagEvents, EnabledEmissionRecordsTallyAndPayload) {
  ScopedDiagObs on(true);
  obs::diag_reset();
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
  ScopedDiagObs on(true);
  obs::diag_reset();
  constexpr int kThreads = 4;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (int i = 0; i < kPerThread; ++i) {
        obs::diag_event(obs::DiagReason::kSimdBailoutGuardTrip,
                        static_cast<double>(t));
        obs::diag_gauge_max(obs::HealthGauge::kMaxEigenbasisCondition,
                            static_cast<double>(i));
      }
    });
  }
  for (std::thread& w : workers) w.join();
  const obs::DiagSnapshot s = obs::diag_snapshot();
  // Tallies are exact even though the per-thread rings wrapped.
  EXPECT_EQ(s.tally[static_cast<std::size_t>(
                obs::DiagReason::kSimdBailoutGuardTrip)],
            static_cast<std::uint64_t>(kThreads) * kPerThread);
  EXPECT_GT(s.dropped, 0u);  // 10000 events > 1024-slot rings
  EXPECT_EQ(s.dropped, obs::diag_dropped());
  EXPECT_FALSE(s.events.empty());
  EXPECT_DOUBLE_EQ(s.gauge[static_cast<std::size_t>(
                       obs::HealthGauge::kMaxEigenbasisCondition)],
                   static_cast<double>(kPerThread - 1));
  obs::diag_reset();
  EXPECT_EQ(obs::diag_snapshot().total(), 0u);
  EXPECT_EQ(obs::diag_dropped(), 0u);
}

TEST(DiagGauges, MaxIsMonotonicAndIgnoresNan) {
  ScopedDiagObs on(true);
  obs::diag_reset();
  const auto g = obs::HealthGauge::kMaxEigenpairResidual;
  obs::diag_gauge_max(g, 1e-13);
  obs::diag_gauge_max(g, 1e-15);  // lower: must not regress
  obs::diag_gauge_max(g, std::numeric_limits<double>::quiet_NaN());
  EXPECT_DOUBLE_EQ(
      obs::diag_snapshot().gauge[static_cast<std::size_t>(g)], 1e-13);
  obs::diag_gauge_max(g, std::numeric_limits<double>::infinity());
  EXPECT_TRUE(std::isinf(
      obs::diag_snapshot().gauge[static_cast<std::size_t>(g)]));
}

TEST(DiagGauges, ResetCountersAlsoResetsDiagnostics) {
  ScopedDiagObs on(true);
  obs::diag_event(obs::DiagReason::kHtmTruncationSaturated, 64.0);
  obs::diag_gauge_max(obs::HealthGauge::kMaxEigenpairResidual, 1.0);
  obs::reset_counters();
  const obs::DiagSnapshot s = obs::diag_snapshot();
  EXPECT_EQ(s.total(), 0u);
  EXPECT_DOUBLE_EQ(s.gauge[static_cast<std::size_t>(
                       obs::HealthGauge::kMaxEigenpairResidual)],
                   0.0);
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
  ScopedDiagObs on(true);
  obs::diag_reset();
  // Phase-augmented system whose filter block is an exact 2x2 Jordan
  // block: a defective double eigenvalue at 0 in the factored block.
  const RMatrix a{{0.0, 1.0, 0.0}, {0.0, 0.0, 0.0}, {1.0, 0.0, 0.0}};
  const RMatrix b{{0.0}, {1.0}, {0.0}};
  PropagatorFactory factory(a, b, true);

  EXPECT_FALSE(factory.is_spectral());
  EXPECT_TRUE(factory.spectral_requested());
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
  ScopedDiagObs on(true);
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
    obs::diag_reset();
    const RMatrix a{{0.0, 1.0, 0.0}, {0.0, -c.delta, 0.0}, {1.0, 0.0, 0.0}};
    const RMatrix b{{0.0}, {1.0}, {0.0}};
    PropagatorFactory factory(a, b, true);

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
  ScopedDiagObs on(true);
  obs::diag_reset();
  // Phase-augmented system with a well-conditioned companion filter
  // block: s^2 + 0.8 s + 1.15, modes -0.4 +- 0.995j.
  const RMatrix a{{0.0, 1.0, 0.0}, {-1.15, -0.8, 0.0}, {1.0, 1.0, 0.0}};
  const RMatrix b{{0.0}, {1.0}, {0.0}};
  PropagatorFactory factory(a, b, true);

  EXPECT_TRUE(factory.is_spectral());
  const obs::DiagSnapshot s = obs::diag_snapshot();
  EXPECT_EQ(s.tally[static_cast<std::size_t>(
                obs::DiagReason::kPadeFallbackDefective)],
            0u);
  const double cond = s.gauge[static_cast<std::size_t>(
      obs::HealthGauge::kMaxEigenbasisCondition)];
  EXPECT_GE(cond, 1.0);
  EXPECT_DOUBLE_EQ(cond, factory.vector_condition());
  // The Vandermonde columns (1, lambda) are eigenvectors up to the
  // rounding of the roots, which the residual gauge records.
  const double residual = s.gauge[static_cast<std::size_t>(
      obs::HealthGauge::kMaxEigenpairResidual)];
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

TEST(CacheStats, RatiosAreZeroGuarded) {
  PropagatorCacheStats stats;
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.0);  // no lookups: no division
  EXPECT_DOUBLE_EQ(stats.miss_rate(), 0.0);
  stats.lookups = 10;
  stats.misses = 2;
  EXPECT_DOUBLE_EQ(stats.hit_rate(), 0.8);
  EXPECT_DOUBLE_EQ(stats.miss_rate(), 0.2);
  EXPECT_EQ(stats.hits(), 8u);
}

TEST(DiagIdentity, InstrumentationDoesNotChangeGridResults) {
  const double w0 = 2.0 * std::numbers::pi;
  const SamplingPllModel model(make_typical_loop(0.1 * w0, w0));
  const CVector s = jw_grid(logspace(1e-3 * w0, 0.49 * w0, 64));

  CVector off_result;
  {
    ScopedDiagObs off(false);
    off_result = model.baseband_transfer_grid(s);
  }
  CVector on_result;
  {
    ScopedDiagObs on(true);
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
    ScopedDiagObs off(false);
    psd_off = na.output_psd_grid(w, s_ref, s_vco, s_icp);
  }
  std::vector<double> psd_on;
  {
    ScopedDiagObs on(true);
    psd_on = na.output_psd_grid(w, s_ref, s_vco, s_icp);
  }
  ASSERT_EQ(psd_off.size(), psd_on.size());
  EXPECT_EQ(std::memcmp(psd_off.data(), psd_on.data(),
                        psd_off.size() * sizeof(double)),
            0);
}

}  // namespace
}  // namespace htmpll
