#include "htmpll/timedomain/loop_filter_sim.hpp"

#include <cmath>

#include "htmpll/obs/metrics.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll {

namespace {

/// Step-memo traffic of every integrator: each miss costs one
/// evaluation (a Van Loan matrix exponential, or one scalar set per mode
/// on the modal path), and lookups - misses is the number saved.
/// Counter::add is a no-op unless instrumentation is enabled.
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

void require_step(double h) {
  HTMPLL_REQUIRE(h >= 0.0, "cannot propagate backwards");
  HTMPLL_REQUIRE(std::isfinite(h), "step length must be finite");
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

PiecewiseExactIntegrator::PiecewiseExactIntegrator(StateSpace ss)
    : ss_(std::move(ss)), factory_(ss_.a, ss_.b), x_(ss_.order(), 0.0) {
  if (factory_.is_spectral()) factory_.project(x_.data(), modal_);
}

const RVector& PiecewiseExactIntegrator::state() const {
  if (!x_current_) {
    factory_.rebuild(modal_, x_.data());
    x_current_ = true;
  }
  return x_;
}

void PiecewiseExactIntegrator::set_state(RVector x) {
  HTMPLL_REQUIRE(x.size() == ss_.order(), "state dimension mismatch");
  x_ = std::move(x);
  x_current_ = true;
  if (factory_.is_spectral()) factory_.project(x_.data(), modal_);
}

void PiecewiseExactIntegrator::lookup(double h) const {
  propagator_metrics().lookups.add();
  if (h == memo_h_) return;
  propagator_metrics().misses.add();
  if (factory_.is_spectral()) {
    propagator_metrics().spectral.add();
    factory_.evaluate(h, step_);
  } else {
    propagator_metrics().pade_fallbacks.add();
    factory_.make_into(h, memo_);
  }
  memo_h_ = h;
}

RVector PiecewiseExactIntegrator::peek(double h, double u) const {
  RVector out;
  peek_into(h, u, out);
  return out;
}

void PiecewiseExactIntegrator::peek_into(double h, double u,
                                         RVector& out) const {
  require_step(h);
  if (h == 0.0) {
    out = state();
    return;
  }
  lookup(h);
  if (factory_.is_spectral()) {
    factory_.advance(step_, modal_, u, peeked_);
    out.resize(ss_.order());
    factory_.rebuild(peeked_, out.data());
  } else {
    memo_.advance_into(x_, u, out);
  }
}

void PiecewiseExactIntegrator::peek_last_many(const double* h,
                                              std::size_t count, double u,
                                              double* out) const {
  const std::size_t last = ss_.order() - 1;
  for (std::size_t i = 0; i < count; ++i) {
    require_step(h[i]);
    if (h[i] == 0.0) {
      out[i] = last_state();
    } else if (factory_.is_spectral()) {
      factory_.evaluate(h[i], sample_step_);
      out[i] = factory_.theta(sample_step_, modal_, u);
    } else {
      peek_into(h[i], u, scratch_);
      out[i] = scratch_[last];
    }
  }
}

double PiecewiseExactIntegrator::last_rate(const RVector& x,
                                           double u) const {
  const std::size_t last = ss_.order() - 1;
  const double* row = ss_.a.row(last);
  double acc = 0.0;
  for (std::size_t j = 0; j <= last; ++j) acc += row[j] * x[j];
  return acc + ss_.b(last, 0) * u;
}

ThetaRows PiecewiseExactIntegrator::peek_theta(double h, double u) const {
  require_step(h);
  HTMPLL_REQUIRE(ss_.b.cols() == 1, "peek_theta needs one input column");
  const bool modal = factory_.is_spectral();
  if (h == 0.0) {
    if (modal) return {modal_.theta, factory_.rate(modal_, u)};
    return {x_.back(), last_rate(x_, u)};
  }
  lookup(h);
  if (modal) return factory_.theta_rows(step_, modal_, u);
  memo_.advance_into(x_, u, scratch_);
  return {scratch_.back(), last_rate(scratch_, u)};
}

void PiecewiseExactIntegrator::advance(double h, double u) {
  if (!factory_.is_spectral()) {
    peek_into(h, u, scratch_);
    x_.swap(scratch_);
    return;
  }
  require_step(h);
  if (h == 0.0) return;
  lookup(h);
  factory_.advance(step_, modal_, u, modal_);
  x_current_ = false;
}

}  // namespace htmpll
