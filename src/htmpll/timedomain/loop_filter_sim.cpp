#include "htmpll/timedomain/loop_filter_sim.hpp"

#include <cstring>

#include "htmpll/obs/metrics.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll {

namespace {

/// Process-wide mirrors of the per-integrator memo stats; Counter::add
/// is a no-op unless instrumentation is enabled.
struct PropagatorMetrics {
  obs::Counter& lookups = obs::counter("timedomain.propagator_lookups");
  obs::Counter& misses = obs::counter("timedomain.propagator_misses");
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
                                                   bool use_spectral)
    : ss_(std::move(ss)),
      factory_(ss_.a, ss_.b, use_spectral),
      x_(ss_.order(), 0.0) {}

void PiecewiseExactIntegrator::set_state(RVector x) {
  HTMPLL_REQUIRE(x.size() == ss_.order(), "state dimension mismatch");
  x_ = std::move(x);
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
  if (h == memo_h_) return memo_;
  ++stats_.misses;
  propagator_metrics().misses.add();
  if (factory_.is_spectral()) {
    propagator_metrics().spectral.add();
  } else if (factory_.spectral_requested()) {
    propagator_metrics().pade_fallbacks.add();
  }
  factory_.make_into(h, memo_, /*want_gamma2=*/false);
  memo_h_ = h;
  return memo_;
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

void PiecewiseExactIntegrator::peek_last_many(const double* h,
                                              std::size_t count, double u,
                                              double* out) const {
  if (factory_.has_last_row_fast_path()) {
    factory_.propagate_last_row_many(h, count, x_.data(), u, out);
    return;
  }
  for (std::size_t i = 0; i < count; ++i) {
    peek_into(h[i], u, scratch_);
    out[i] = scratch_[ss_.order() - 1];
  }
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
