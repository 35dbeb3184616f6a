#include "htmpll/obs/trace.hpp"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <mutex>

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

/// Per-thread span ring.  Single writer (the owning thread); readers
/// acquire `head` and then load the published slots relaxed, so export
/// races neither with writes nor with TSan.
class TraceBuffer {
 public:
  struct Slot {
    std::atomic<const char*> name{nullptr};
    std::atomic<std::uint64_t> begin_ns{0};
    std::atomic<std::uint64_t> end_ns{0};
  };

  TraceBuffer(int tid, std::size_t capacity)
      : tid_(tid), capacity_(capacity), slots_(capacity) {}

  void record(const char* name, std::uint64_t begin_ns,
              std::uint64_t end_ns) {
    const std::uint64_t h = head_.load(std::memory_order_relaxed);
    Slot& s = slots_[h % capacity_];
    s.name.store(name, std::memory_order_relaxed);
    s.begin_ns.store(begin_ns, std::memory_order_relaxed);
    s.end_ns.store(end_ns, std::memory_order_relaxed);
    head_.store(h + 1, std::memory_order_release);
  }

  void collect_into(std::vector<TraceEventView>& out) const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    const std::uint64_t n = std::min<std::uint64_t>(h, capacity_);
    for (std::uint64_t i = h - n; i < h; ++i) {
      const Slot& s = slots_[i % capacity_];
      TraceEventView e;
      e.name = s.name.load(std::memory_order_relaxed);
      e.begin_ns = s.begin_ns.load(std::memory_order_relaxed);
      e.end_ns = s.end_ns.load(std::memory_order_relaxed);
      e.tid = tid_;
      if (e.name != nullptr) out.push_back(e);
    }
  }

  std::uint64_t dropped() const {
    const std::uint64_t h = head_.load(std::memory_order_acquire);
    return h > capacity_ ? h - capacity_ : 0;
  }

  std::uint64_t size() const {
    return std::min<std::uint64_t>(head_.load(std::memory_order_acquire),
                                   capacity_);
  }

  void clear() { head_.store(0, std::memory_order_release); }

 private:
  int tid_;
  std::size_t capacity_;
  std::vector<Slot> slots_;
  std::atomic<std::uint64_t> head_{0};
};

std::mutex& trace_mutex() {
  static std::mutex mu;
  return mu;
}

/// All rings ever registered; shared ownership with each thread's local
/// handle so a ring survives its thread (its spans stay exportable).
/// Leaked so exports work during late static destruction.
std::vector<std::shared_ptr<TraceBuffer>>& buffers() {
  static auto* v = new std::vector<std::shared_ptr<TraceBuffer>>();
  return *v;
}

TraceBuffer& local_buffer() {
  thread_local std::shared_ptr<TraceBuffer> buf = [] {
    std::lock_guard<std::mutex> lock(trace_mutex());
    auto b = std::make_shared<TraceBuffer>(
        static_cast<int>(buffers().size()), trace_capacity());
    buffers().push_back(b);
    return b;
  }();
  return *buf;
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
  local_buffer().record(name, begin_ns, end_ns);
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
  {
    std::lock_guard<std::mutex> lock(trace_mutex());
    for (const auto& b : buffers()) b->collect_into(out);
  }
  std::sort(out.begin(), out.end(),
            [](const TraceEventView& a, const TraceEventView& b) {
              return a.begin_ns != b.begin_ns ? a.begin_ns < b.begin_ns
                                              : a.end_ns > b.end_ns;
            });
  return out;
}

std::uint64_t trace_dropped() {
  std::lock_guard<std::mutex> lock(trace_mutex());
  std::uint64_t n = 0;
  for (const auto& b : buffers()) n += b->dropped();
  return n;
}

std::size_t trace_event_count() {
  std::lock_guard<std::mutex> lock(trace_mutex());
  std::uint64_t n = 0;
  for (const auto& b : buffers()) n += b->size();
  return static_cast<std::size_t>(n);
}

void clear_trace() {
  std::lock_guard<std::mutex> lock(trace_mutex());
  for (const auto& b : buffers()) b->clear();
}

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
