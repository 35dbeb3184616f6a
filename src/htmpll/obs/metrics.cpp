#include "htmpll/obs/metrics.hpp"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>

#include "htmpll/obs/diag.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll::obs {

namespace detail {
std::atomic<bool> g_enabled{false};
}  // namespace detail

namespace {

/// Reads HTMPLL_OBS once during static initialization: any value other
/// than empty or "0" turns instrumentation on for the whole process.
struct EnvInit {
  EnvInit() {
    const char* e = std::getenv("HTMPLL_OBS");
    if (e != nullptr && e[0] != '\0' && !(e[0] == '0' && e[1] == '\0')) {
      detail::g_enabled.store(true, std::memory_order_relaxed);
    }
  }
} env_init;

/// Name -> metric maps.  unique_ptr values keep addresses stable across
/// rehashing, so references handed out by counter()/gauge() stay valid
/// forever.  Guarded by registry_mutex().
struct Registry {
  std::map<std::string, std::unique_ptr<Counter>> counters;
  std::map<std::string, std::unique_ptr<Gauge>> gauges;
};

std::mutex& registry_mutex() {
  static std::mutex mu;
  return mu;
}

Registry& registry() {
  static Registry* r = new Registry();  // leaked: metrics outlive statics
  return *r;
}

void require_unregistered(const Registry& r, const std::string& name,
                          MetricKind want) {
  const bool as_counter = r.counters.count(name) != 0;
  const bool as_gauge = r.gauges.count(name) != 0;
  const bool clash = (as_counter && want != MetricKind::kCounter) ||
                     (as_gauge && want != MetricKind::kGauge);
  HTMPLL_REQUIRE(!clash,
                 "obs metric '" + name +
                     "' is already registered as a different kind");
}

}  // namespace

void enable() { detail::g_enabled.store(true, std::memory_order_relaxed); }
void disable() { detail::g_enabled.store(false, std::memory_order_relaxed); }

Counter& counter(const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  Registry& r = registry();
  auto it = r.counters.find(name);
  if (it == r.counters.end()) {
    require_unregistered(r, name, MetricKind::kCounter);
    it = r.counters.emplace(name, std::make_unique<Counter>()).first;
  }
  return *it->second;
}

Gauge& gauge(const std::string& name) {
  std::lock_guard<std::mutex> lock(registry_mutex());
  Registry& r = registry();
  auto it = r.gauges.find(name);
  if (it == r.gauges.end()) {
    require_unregistered(r, name, MetricKind::kGauge);
    it = r.gauges.emplace(name, std::make_unique<Gauge>()).first;
  }
  return *it->second;
}

const MetricSample* MetricsSnapshot::find(const std::string& name) const {
  for (const MetricSample& s : samples) {
    if (s.name == name) return &s;
  }
  return nullptr;
}

std::uint64_t MetricsSnapshot::counter_value(const std::string& name) const {
  const MetricSample* s = find(name);
  return s == nullptr ? 0 : s->count;
}

double MetricsSnapshot::gauge_value(const std::string& name) const {
  const MetricSample* s = find(name);
  return s == nullptr ? 0.0 : s->value;
}

MetricsSnapshot snapshot() {
  std::lock_guard<std::mutex> lock(registry_mutex());
  const Registry& r = registry();
  MetricsSnapshot out;
  out.samples.reserve(r.counters.size() + r.gauges.size());
  for (const auto& [name, c] : r.counters) {
    MetricSample s;
    s.name = name;
    s.kind = MetricKind::kCounter;
    s.count = c->value();
    out.samples.push_back(std::move(s));
  }
  for (const auto& [name, g] : r.gauges) {
    MetricSample s;
    s.name = name;
    s.kind = MetricKind::kGauge;
    s.value = g->value();
    out.samples.push_back(std::move(s));
  }
  std::sort(out.samples.begin(), out.samples.end(),
            [](const MetricSample& a, const MetricSample& b) {
              return a.name < b.name;
            });
  return out;
}

void reset_counters() {
  {
    std::lock_guard<std::mutex> lock(registry_mutex());
    Registry& r = registry();
    for (auto& [name, c] : r.counters) c->reset();
    for (auto& [name, g] : r.gauges) g->reset();
  }
  // The events' tallies were among the counters; drop the events too,
  // so diag_snapshot() covers the same window as snapshot().
  detail::clear_diag_events();
}

}  // namespace htmpll::obs
