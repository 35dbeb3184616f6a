#include "htmpll/timedomain/loop_filter_sim.hpp"

#include <cstring>

#include "htmpll/obs/diag.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll {

namespace {

/// Process-wide mirrors of the per-integrator cache stats; Counter::add
/// is a no-op unless instrumentation is enabled.
struct PropagatorMetrics {
  obs::Counter& lookups = obs::counter("timedomain.propagator_lookups");
  obs::Counter& misses = obs::counter("timedomain.propagator_misses");
  obs::Counter& evictions = obs::counter("timedomain.propagator_evictions");
  obs::Counter& spectral = obs::counter("timedomain.spectral_propagators");
  obs::Counter& pade_fallbacks = obs::counter("timedomain.pade_fallbacks");
};

PropagatorMetrics& propagator_metrics() {
  static PropagatorMetrics m;
  return m;
}

/// Process-wide mirrors of the shared ensemble-store stats.
struct EnsembleStoreMetrics {
  obs::Counter& lookups = obs::counter("timedomain.ensemble_store_lookups");
  obs::Counter& misses = obs::counter("timedomain.ensemble_store_misses");
  obs::Counter& evictions =
      obs::counter("timedomain.ensemble_store_evictions");
};

EnsembleStoreMetrics& ensemble_store_metrics() {
  static EnsembleStoreMetrics m;
  return m;
}

/// splitmix64 finalizer over the bit pattern of h.  Step lengths differ
/// only in a few mantissa bits (Newton edge refinements), so the key
/// needs full avalanche to spread over a small table.
std::uint64_t hash_step(double h) {
  std::uint64_t z;
  std::memcpy(&z, &h, sizeof z);
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::size_t table_size_for(std::size_t capacity) {
  // Load factor <= 0.5 keeps linear-probe chains short.
  std::size_t n = 4;
  while (n < 2 * capacity) n *= 2;
  return n;
}

}  // namespace

StateSpace augment_with_phase(const StateSpace& filter, double kvco) {
  const std::size_t n = filter.order();
  StateSpace aug;
  aug.a = RMatrix(n + 1, n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) aug.a(i, j) = filter.a(i, j);
  }
  for (std::size_t j = 0; j < n; ++j) aug.a(n, j) = kvco * filter.c(0, j);

  aug.b = RMatrix(n + 1, 1);
  for (std::size_t i = 0; i < n; ++i) aug.b(i, 0) = filter.b(i, 0);
  aug.b(n, 0) = kvco * filter.d;

  aug.c = RMatrix(1, n + 1);
  for (std::size_t j = 0; j < n; ++j) aug.c(0, j) = filter.c(0, j);
  aug.d = filter.d;
  return aug;
}

SharedPropagatorStore::SharedPropagatorStore(const PropagatorFactory& factory,
                                             std::size_t slots)
    : factory_(factory) {
  HTMPLL_REQUIRE(slots >= 1, "shared propagator store needs >= 1 slot");
  std::size_t n = 1;
  while (n < slots) n *= 2;
  slots_.resize(n);
  mask_ = n - 1;
  if (factory_.is_spectral()) {
    // Pre-size every slot's matrices so make_into's assign_zero never
    // allocates, even the first time a slot is touched mid-run --
    // spectral misses are allocation-free from the first get() on.
    // (Pade builds replace the matrices wholesale, so pre-sizing would
    // buy nothing there.  gamma2 stays empty: get() builds without it.)
    const std::size_t order = factory_.order();
    const std::size_t inputs = factory_.inputs();
    for (Slot& s : slots_) {
      s.prop.phi0.assign_zero(order, order);
      if (inputs > 0) s.prop.gamma1.assign_zero(order, inputs);
    }
  }
  EnsembleStoreMetrics& m = ensemble_store_metrics();
  lookups_counter_ = &m.lookups;
  misses_counter_ = &m.misses;
  evictions_counter_ = &m.evictions;
}

const StepPropagator& SharedPropagatorStore::get(double h) {
  ++stats_.lookups;
  Slot& slot = slots_[static_cast<std::size_t>(hash_step(h)) & mask_];
  if (slot.used && slot.h == h) return slot.prop;
  ++stats_.misses;
  if (slot.used) ++stats_.evictions;
  factory_.make_into(h, slot.prop, /*want_gamma2=*/false);
  slot.h = h;
  slot.used = true;
  return slot.prop;
}

void SharedPropagatorStore::flush_counters() {
  lookups_counter_->add(stats_.lookups - flushed_.lookups);
  misses_counter_->add(stats_.misses - flushed_.misses);
  evictions_counter_->add(stats_.evictions - flushed_.evictions);
  flushed_ = stats_;
}

PiecewiseExactIntegrator::PiecewiseExactIntegrator(StateSpace ss,
                                                   std::size_t cache_capacity,
                                                   bool use_spectral)
    : ss_(std::move(ss)),
      factory_(ss_.a, ss_.b, use_spectral),
      x_(ss_.order(), 0.0) {
  set_cache_capacity(cache_capacity);
}

void PiecewiseExactIntegrator::set_state(RVector x) {
  HTMPLL_REQUIRE(x.size() == ss_.order(), "state dimension mismatch");
  x_ = std::move(x);
}

void PiecewiseExactIntegrator::set_cache_capacity(std::size_t capacity) {
  HTMPLL_REQUIRE(capacity >= 1, "propagator cache needs at least one slot");
  cache_capacity_ = capacity;
  if (cache_.size() > capacity) {
    cache_.clear();
    next_slot_ = 0;
  }
  cache_.reserve(cache_capacity_);
  slots_.assign(table_size_for(cache_capacity_), -1);
  slot_mask_ = slots_.size() - 1;
  rebuild_index();
}

std::size_t PiecewiseExactIntegrator::slot_home(double h) const {
  return static_cast<std::size_t>(hash_step(h)) & slot_mask_;
}

void PiecewiseExactIntegrator::index_insert(double h,
                                            std::int32_t entry) const {
  std::size_t i = slot_home(h);
  while (slots_[i] >= 0) i = (i + 1) & slot_mask_;
  slots_[i] = entry;
}

void PiecewiseExactIntegrator::index_erase(double h) const {
  std::size_t i = slot_home(h);
  while (true) {
    const std::int32_t e = slots_[i];
    HTMPLL_ASSERT(e >= 0);  // evicted keys are always indexed
    if (cache_[static_cast<std::size_t>(e)].h == h) break;
    i = (i + 1) & slot_mask_;
  }
  // Backward-shift deletion: pull every displaced follower of the probe
  // chain into the hole so later lookups never hit a tombstone.
  slots_[i] = -1;
  std::size_t j = i;
  while (true) {
    j = (j + 1) & slot_mask_;
    const std::int32_t e = slots_[j];
    if (e < 0) break;
    const std::size_t home = slot_home(cache_[static_cast<std::size_t>(e)].h);
    if (((j - home) & slot_mask_) >= ((j - i) & slot_mask_)) {
      slots_[i] = e;
      slots_[j] = -1;
      i = j;
    }
  }
}

void PiecewiseExactIntegrator::rebuild_index() const {
  for (std::size_t e = 0; e < cache_.size(); ++e) {
    index_insert(cache_[e].h, static_cast<std::int32_t>(e));
  }
}

void PiecewiseExactIntegrator::set_shared_store(SharedPropagatorStore* store) {
  if (store != nullptr) {
    HTMPLL_REQUIRE(store->factory().order() == factory_.order() &&
                       store->factory().mode() == factory_.mode(),
                   "shared propagator store was built for a different "
                   "system");
  }
  shared_ = store;
}

const StepPropagator& PiecewiseExactIntegrator::propagator(double h) const {
  if (shared_ != nullptr) return shared_->get(h);
  ++stats_.lookups;
  propagator_metrics().lookups.add();
  std::size_t i = slot_home(h);
  while (true) {
    const std::int32_t e = slots_[i];
    if (e < 0) break;
    const CacheEntry& entry = cache_[static_cast<std::size_t>(e)];
    if (entry.h == h) return entry.prop;
    i = (i + 1) & slot_mask_;
  }
  ++stats_.misses;
  propagator_metrics().misses.add();
  if (factory_.is_spectral()) {
    propagator_metrics().spectral.add();
  } else if (factory_.spectral_requested()) {
    propagator_metrics().pade_fallbacks.add();
  }
  if (cache_.size() < cache_capacity_) {
    StepPropagator prop;
    factory_.make_into(h, prop, /*want_gamma2=*/false);
    cache_.push_back({h, std::move(prop)});
    index_insert(h, static_cast<std::int32_t>(cache_.size() - 1));
    return cache_.back().prop;
  }
  ++stats_.evictions;
  propagator_metrics().evictions.add();
  obs::diag_event(obs::DiagReason::kPropagatorCacheEviction, h);
  // Churn signal: one bounded event per full capacity turnover (payload
  // = completed turnovers), so an undersized cache shows up in the diag
  // ring even when per-eviction events have aged out.
  if (stats_.evictions % cache_capacity_ == 0) {
    obs::diag_event(obs::DiagReason::kPropagatorCacheChurn,
                    static_cast<double>(stats_.evictions / cache_capacity_));
  }
  CacheEntry& slot = cache_[next_slot_];
  const std::int32_t entry = static_cast<std::int32_t>(next_slot_);
  next_slot_ = (next_slot_ + 1) % cache_capacity_;
  index_erase(slot.h);
  slot.h = h;
  factory_.make_into(h, slot.prop, /*want_gamma2=*/false);
  index_insert(h, entry);
  return slot.prop;
}

RVector PiecewiseExactIntegrator::peek(double h, double u) const {
  HTMPLL_REQUIRE(h >= 0.0, "cannot propagate backwards");
  if (h == 0.0) return x_;
  const RVector uu{u};
  return propagator(h).advance(x_, uu, uu, h);
}

void PiecewiseExactIntegrator::peek_into(double h, double u,
                                         RVector& out) const {
  HTMPLL_REQUIRE(h >= 0.0, "cannot propagate backwards");
  if (h == 0.0) {
    out = x_;
    return;
  }
  propagator(h).advance_into(x_, u, u, h, out);
}

double PiecewiseExactIntegrator::peek_last(double h, double u) const {
  HTMPLL_REQUIRE(h >= 0.0, "cannot propagate backwards");
  const std::size_t last = ss_.order() - 1;
  if (h == 0.0) return x_[last];
  if (factory_.has_last_row_fast_path()) {
    return factory_.propagate_last_row(h, x_.data(), u);
  }
  peek_into(h, u, scratch_);
  return scratch_[last];
}

double PiecewiseExactIntegrator::peek_output(double h, double u) const {
  peek_into(h, u, scratch_);
  return ss_.output(scratch_, u);
}

void PiecewiseExactIntegrator::advance(double h, double u) {
  peek_into(h, u, scratch_);
  x_.swap(scratch_);
}

}  // namespace htmpll
