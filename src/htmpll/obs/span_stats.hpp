// Per-name aggregation of the span trace rings: count, total and SELF
// time, min/p50/p95/max durations.  perfbench splits each pass by layer
// from these, so "where did the time go" is answerable without opening
// the Chrome trace in Perfetto.
//
// Self time subtracts the durations of directly nested child spans on
// the same thread (e.g. "core.plan_grid" inside "sweep.run"), so the
// per-name totals of a deep trace still add up to wall time instead of
// multiply counting every nesting level.
//
// Percentiles use the nearest-rank definition on the sorted durations:
// p = durations[ceil(q * count) - 1].  With one span, min = p50 = p95 =
// max.  Aggregation walks the retained ring contents, so spans dropped
// to ring wrap-around are not represented -- report trace_dropped()
// next to these numbers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "htmpll/obs/trace.hpp"

namespace htmpll::obs {

/// Aggregate statistics of all retained spans sharing one name.
struct SpanAggregate {
  std::string name;
  std::uint64_t count = 0;
  std::uint64_t total_ns = 0;  ///< sum of durations (incl. children)
  std::uint64_t self_ns = 0;   ///< total minus same-thread child spans
  std::uint64_t min_ns = 0;
  std::uint64_t p50_ns = 0;
  std::uint64_t p95_ns = 0;
  std::uint64_t max_ns = 0;

  /// total / count; 0.0 before the first span (zero-count guarded).
  double mean_ns() const {
    return count == 0 ? 0.0
                      : static_cast<double>(total_ns) /
                            static_cast<double>(count);
  }
};

/// Aggregates an explicit event list (begin-sorted or not), e.g. a
/// synthetic trace in tests.  Returns aggregates sorted by name.
std::vector<SpanAggregate> aggregate_spans(
    std::vector<TraceEventView> events);

/// Aggregates the live trace rings (collect_trace()).
std::vector<SpanAggregate> aggregate_spans();

}  // namespace htmpll::obs
