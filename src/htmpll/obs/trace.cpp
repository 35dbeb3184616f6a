#include "htmpll/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "htmpll/obs/ring.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll::obs {

std::uint64_t now_ns() {
  static const std::chrono::steady_clock::time_point epoch =
      std::chrono::steady_clock::now();
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - epoch)
          .count());
}

namespace {

constexpr std::size_t kDefaultTraceCapacity = 1 << 14;  // 16384 spans

/// One span: relaxed-atomic fields of the ring slot (obs/ring.hpp).
struct SpanSlot {
  std::atomic<const char*> name{nullptr};
  std::atomic<std::uint64_t> begin_ns{0};
  std::atomic<std::uint64_t> end_ns{0};

  void store(const char* n, std::uint64_t b, std::uint64_t e) {
    name.store(n, std::memory_order_relaxed);
    begin_ns.store(b, std::memory_order_relaxed);
    end_ns.store(e, std::memory_order_relaxed);
  }
  bool load(TraceEventView& out) const {
    out.name = name.load(std::memory_order_relaxed);
    out.begin_ns = begin_ns.load(std::memory_order_relaxed);
    out.end_ns = end_ns.load(std::memory_order_relaxed);
    return out.name != nullptr;
  }
};

/// The span rings, trace_capacity() spans per thread.  Leaked so
/// exports work during late static destruction.
detail::RingSet<SpanSlot>& span_rings() {
  static auto* rings = new detail::RingSet<SpanSlot>(trace_capacity());
  return *rings;
}

void append_escaped(std::string& out, const char* s) {
  for (; *s != '\0'; ++s) {
    const char c = *s;
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
}

}  // namespace

namespace detail {

void record_span(const char* name, std::uint64_t begin_ns,
                 std::uint64_t end_ns) {
  span_rings().local().record(name, begin_ns, end_ns);
}

std::size_t parse_trace_cap(const char* env, std::size_t fallback) {
  if (env == nullptr || *env == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(env, &end, 10);
  // strtoull wraps a leading '-' through ULLONG_MAX; reject it as
  // garbage instead.
  if (*env == '-' || end == env || *end != '\0' || v == 0) {
    std::fprintf(stderr,
                 "htmpll: warning: HTMPLL_TRACE_CAP='%s' is not a "
                 "positive span count; keeping the default of %zu\n",
                 env, fallback);
    return fallback;
  }
  constexpr unsigned long long kMin = 64;
  constexpr unsigned long long kMax = 1ull << 22;  // 4194304 spans
  if (v < kMin) return static_cast<std::size_t>(kMin);
  if (v > kMax) return static_cast<std::size_t>(kMax);
  return static_cast<std::size_t>(v);
}

}  // namespace detail

std::size_t trace_capacity() {
  static const std::size_t cap = detail::parse_trace_cap(
      std::getenv("HTMPLL_TRACE_CAP"), kDefaultTraceCapacity);
  return cap;
}

std::vector<TraceEventView> collect_trace() {
  std::vector<TraceEventView> out;
  span_rings().collect_into(out);
  std::sort(out.begin(), out.end(),
            [](const TraceEventView& a, const TraceEventView& b) {
              return a.begin_ns != b.begin_ns ? a.begin_ns < b.begin_ns
                                              : a.end_ns > b.end_ns;
            });
  return out;
}

std::uint64_t trace_dropped() { return span_rings().dropped(); }

void clear_trace() { span_rings().clear(); }

std::string chrome_trace_json() {
  const std::vector<TraceEventView> events = collect_trace();
  std::string out;
  out.reserve(128 + events.size() * 96);
  out += "{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [\n";
  out +=
      "    {\"name\": \"process_name\", \"ph\": \"M\", \"pid\": 1, "
      "\"args\": {\"name\": \"htmpll\"}}";
  char buf[64];
  for (const TraceEventView& e : events) {
    out += ",\n    {\"name\": \"";
    append_escaped(out, e.name);
    out += "\", \"cat\": \"htmpll\", \"ph\": \"X\", \"pid\": 1, \"tid\": ";
    std::snprintf(buf, sizeof buf, "%d", e.tid);
    out += buf;
    // Chrome trace timestamps/durations are microseconds.
    std::snprintf(buf, sizeof buf, ", \"ts\": %.3f, \"dur\": %.3f}",
                  static_cast<double>(e.begin_ns) * 1e-3,
                  static_cast<double>(e.end_ns - e.begin_ns) * 1e-3);
    out += buf;
  }
  out += "\n  ]\n}\n";
  return out;
}

void write_chrome_trace(const std::string& path) {
  const std::uint64_t lost = trace_dropped();
  if (lost > 0) {
    std::fprintf(stderr,
                 "htmpll: warning: %llu trace span(s) were dropped to "
                 "ring wrap-around (per-thread capacity %zu); raise "
                 "HTMPLL_TRACE_CAP to retain them\n",
                 static_cast<unsigned long long>(lost), trace_capacity());
  }
  std::ofstream os(path);
  HTMPLL_REQUIRE(os.good(), "cannot open trace output file: " + path);
  os << chrome_trace_json();
  os.flush();
  HTMPLL_REQUIRE(os.good(), "cannot write trace output file: " + path);
}

}  // namespace htmpll::obs
