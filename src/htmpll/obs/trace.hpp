// Scoped span tracing into per-thread lock-free ring buffers, with
// Chrome trace-event (chrome://tracing / Perfetto) JSON export.
//
//   {
//     HTMPLL_TRACE_SPAN("probe.settle");
//     sim.run_until(settle);           // span covers this scope
//   }
//   obs::write_chrome_trace("sweep.trace.json");
//
// Each thread owns a fixed-capacity ring of completed spans (name,
// begin, end in steady-clock nanoseconds; obs/ring.hpp, the same ring
// the diagnostic log keeps its events in).  The owning thread is the
// only writer; slot fields are relaxed atomics published by a release
// store of the ring head, so concurrent export is TSan-clean.  When a
// ring wraps, the oldest spans are overwritten and counted as dropped
// (write_chrome_trace warns when that happened and trace_dropped()
// reports the count; raise HTMPLL_TRACE_CAP to size the rings for
// longer runs).
//
// Spans share the obs::enabled() switch with the metrics registry: a
// TraceSpan constructed while disabled records nothing and costs one
// relaxed load.  Span names must have static storage duration (string
// literals) -- the ring stores the pointer, not a copy.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "htmpll/obs/metrics.hpp"

namespace htmpll::obs {

/// Nanoseconds on the steady clock since the process trace epoch.
std::uint64_t now_ns();

namespace detail {
/// Appends one completed span to the calling thread's ring buffer.
void record_span(const char* name, std::uint64_t begin_ns,
                 std::uint64_t end_ns);

/// Parses an HTMPLL_TRACE_CAP value.  Returns `fallback` (with a
/// stderr warning) for null/empty/garbage/zero input; valid values are
/// clamped to [64, 4194304] spans.
std::size_t parse_trace_cap(const char* env, std::size_t fallback);
}  // namespace detail

/// Per-thread span-ring capacity: HTMPLL_TRACE_CAP when set (resolved
/// once, at the first use of the tracer), 16384 spans otherwise.
std::size_t trace_capacity();

/// RAII span: times the enclosing scope when obs is enabled, does
/// nothing otherwise.  `name` must be a string literal (or any pointer
/// that outlives the trace).
class TraceSpan {
 public:
  explicit TraceSpan(const char* name) {
    if (enabled()) {
      name_ = name;
      begin_ns_ = now_ns();
    }
  }
  ~TraceSpan() {
    if (name_ != nullptr) detail::record_span(name_, begin_ns_, now_ns());
  }
  TraceSpan(const TraceSpan&) = delete;
  TraceSpan& operator=(const TraceSpan&) = delete;

 private:
  const char* name_ = nullptr;
  std::uint64_t begin_ns_ = 0;
};

/// One exported span (copied out of the rings at collection time).
struct TraceEventView {
  const char* name;
  std::uint64_t begin_ns;
  std::uint64_t end_ns;
  int tid;  ///< small per-thread id assigned at first span
};

/// Copies every retained span out of every thread's ring, sorted by
/// begin time.  Safe to call while other threads trace (each ring's
/// published prefix is read consistently), but for exact results call
/// at quiescence.
std::vector<TraceEventView> collect_trace();

/// Spans lost to ring wrap-around since the last clear_trace().
std::uint64_t trace_dropped();

/// Drops all retained spans (rings stay registered).  Call between
/// bench phases; only safe at quiescence.
void clear_trace();

/// The retained spans as a Chrome trace-event JSON document
/// (chrome://tracing and https://ui.perfetto.dev load it directly).
std::string chrome_trace_json();

/// Writes chrome_trace_json() to `path`; throws std::invalid_argument
/// naming the path when the file cannot be opened or the write fails.
void write_chrome_trace(const std::string& path);

}  // namespace htmpll::obs

#define HTMPLL_OBS_CONCAT_(a, b) a##b
#define HTMPLL_OBS_CONCAT(a, b) HTMPLL_OBS_CONCAT_(a, b)
/// Times the enclosing scope under `name` when obs is enabled.
#define HTMPLL_TRACE_SPAN(name)     \
  ::htmpll::obs::TraceSpan HTMPLL_OBS_CONCAT(htmpll_obs_span_, \
                                             __COUNTER__)(name)
