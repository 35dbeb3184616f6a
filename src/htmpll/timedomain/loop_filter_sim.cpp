#include "htmpll/timedomain/loop_filter_sim.hpp"

#include "htmpll/obs/metrics.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll {

namespace {

/// Propagator-memo traffic of every integrator: each miss costs one
/// propagator construction (a Van Loan matrix exponential, or n scalar
/// exponentials on the modal path), and lookups - misses is the number
/// saved.  Counter::add is a no-op unless instrumentation is enabled.
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

PiecewiseExactIntegrator::PiecewiseExactIntegrator(StateSpace ss,
                                                   bool use_spectral)
    : ss_(std::move(ss)),
      factory_(ss_.a, ss_.b, use_spectral),
      x_(ss_.order(), 0.0) {}

void PiecewiseExactIntegrator::set_state(RVector x) {
  HTMPLL_REQUIRE(x.size() == ss_.order(), "state dimension mismatch");
  x_ = std::move(x);
}

const StepPropagator& PiecewiseExactIntegrator::propagator(double h) const {
  propagator_metrics().lookups.add();
  if (h == memo_h_) return memo_;
  propagator_metrics().misses.add();
  if (factory_.is_spectral()) {
    propagator_metrics().spectral.add();
  } else if (factory_.spectral_requested()) {
    propagator_metrics().pade_fallbacks.add();
  }
  factory_.make_into(h, memo_);
  memo_h_ = h;
  return memo_;
}

RVector PiecewiseExactIntegrator::peek(double h, double u) const {
  HTMPLL_REQUIRE(h >= 0.0, "cannot propagate backwards");
  if (h == 0.0) return x_;
  return propagator(h).advance(x_, {u});
}

void PiecewiseExactIntegrator::peek_into(double h, double u,
                                         RVector& out) const {
  HTMPLL_REQUIRE(h >= 0.0, "cannot propagate backwards");
  if (h == 0.0) {
    out = x_;
    return;
  }
  propagator(h).advance_into(x_, u, out);
}

void PiecewiseExactIntegrator::peek_last_many(const double* h,
                                              std::size_t count, double u,
                                              double* out) const {
  if (factory_.is_spectral()) {
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
