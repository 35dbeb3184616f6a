#include "htmpll/timedomain/pll_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <string>
#include <utility>

#include "htmpll/linalg/lu.hpp"
#include "htmpll/obs/diag.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll {

double ReferenceModulation::value(double t) const {
  if (amplitude == 0.0) return 0.0;
  return amplitude * std::sin(omega * t + phase);
}

double ReferenceModulation::slope(double t) const {
  if (amplitude == 0.0) return 0.0;
  return amplitude * omega * std::cos(omega * t + phase);
}

namespace {

/// Stop rule of every edge search: a Newton step (or bisection bracket)
/// within `tolerance` seconds, or within 4 ulp of the target time once
/// that is coarser -- past t ~ 128 T, kEdgeTolerance T is finer than the
/// spacing of the doubles there and could never be met.
double edge_search_tolerance(double tolerance, double target) {
  return std::max(tolerance, 4.0 * detail::ulp_above(std::abs(target)));
}

/// Angles that took libm's sincos because they lay outside the
/// small-angle series' range.
obs::Counter& phasor_fallback_counter() {
  static obs::Counter& c = obs::counter("timedomain.phasor_fallbacks");
  return c;
}

/// z e^{j x} from (cos x, sin x), written out: std::complex's product
/// carries a NaN-recovery branch the event loop does not need.
cplx rotate(cplx z, double c, double s) {
  return {z.real() * c - z.imag() * s, z.real() * s + z.imag() * c};
}

/// Newton on d = t - target for t + a sin(omega t + phase) = target,
/// from the phasor (s0, c0) of the target's angle: the angle of t is
/// that angle plus omega d, so each step rotates (s0, c0) by
/// rotation(omega d, sin, cos) instead of reducing a large argument
/// again.  Returns d once a step is within `tol`.
template <class SinCos>
double edge_offset(double amplitude, double omega, double s0, double c0,
                   double tol, SinCos&& rotation) {
  double d = -amplitude * s0;
  for (int it = 0; it < 50; ++it) {
    double sd, cd;
    rotation(omega * d, sd, cd);
    const double s = s0 * cd + c0 * sd;
    const double c = c0 * cd - s0 * sd;
    const double g = d + amplitude * s;
    const double gp = 1.0 + amplitude * omega * c;
    const double step = -g / gp;
    // Unlike the VCO edge below, the last step is taken: no step memo
    // waits on the evaluated point, and the step costs nothing.
    d += step;
    if (std::abs(step) <= tol) break;
  }
  return d;
}

__attribute__((noinline)) void libm_fallback_sincos(double x, double& s,
                                                    double& c) {
  phasor_fallback_counter().add();
  __builtin_sincos(x, &s, &c);
}

/// detail::small_angle_sincos, inlined into the event loop's callers.
/// Horner in x^2 on the Taylor coefficients; adding the leading x and 1
/// last keeps each result within a rounding of the exact one.  Up to
/// |x| = 2^-6, the terms past x^7 and x^6 are below 1e-19 relative, so
/// the angles of lock (edge rotations, baseband offsets) take the short
/// polynomials.
inline __attribute__((always_inline)) void sincos_series(double x, double& s,
                                                         double& c) {
  const double ax = std::abs(x);
  const double x2 = x * x;
  double ps, pc;
  if (ax <= 0x1p-6) {
    ps = -1.0 / 6.0 + x2 * (1.0 / 120.0 + x2 * (-1.0 / 5040.0));
    pc = -0.5 + x2 * (1.0 / 24.0 + x2 * (-1.0 / 720.0));
  } else if (ax <= detail::kSmallAngleMax) {
    ps = -1.0 / 6.0 +
         x2 * (1.0 / 120.0 +
               x2 * (-1.0 / 5040.0 +
                     x2 * (1.0 / 362880.0 +
                           x2 * (-1.0 / 39916800.0 +
                                 x2 * (1.0 / 6227020800.0)))));
    pc = -0.5 +
         x2 * (1.0 / 24.0 +
               x2 * (-1.0 / 720.0 +
                     x2 * (1.0 / 40320.0 +
                           x2 * (-1.0 / 3628800.0 +
                                 x2 * (1.0 / 479001600.0)))));
  } else {
    libm_fallback_sincos(x, s, c);
    return;
  }
  s = x + x * (x2 * ps);
  c = 1.0 + x2 * pc;
}

/// The rounding error of p = fl(a b): a b = p + e exactly (Dekker's
/// product, which needs no fused multiply-add).
double product_error(double a, double b, double p) {
  constexpr double kSplit = 134217729.0;  // 2^27 + 1
  const double ca = kSplit * a;
  const double cb = kSplit * b;
  const double ah = ca - (ca - a);
  const double bh = cb - (cb - b);
  const double al = a - ah;
  const double bl = b - bh;
  return ((ah * bh - p) + ah * bl + al * bh) + al * bl;
}

/// The rounding error of s = fl(a + b): a + b = s + e exactly (Knuth).
double sum_error(double a, double b, double s) {
  const double bb = s - a;
  return (a - (s - bb)) + (b - bb);
}

/// e^{j (nu (x + x_err) + phase)} for the exact angle, not its double
/// rounding: libm's sincos of the rounded angle, turned by the rounding
/// errors of nu x and of the sum plus nu x_err, which stay far below
/// 1e-5 rad, where the second-order turn is exact to the last bit.
cplx exact_phasor(double nu, double x, double x_err, double phase) {
  const double p = nu * x;
  const double angle = p + phase;
  double err =
      product_error(nu, x, p) + nu * x_err + sum_error(p, phase, angle);
  if (!std::isfinite(err)) err = 0.0;  // a product out of range
  double s, c;
  __builtin_sincos(angle, &s, &c);
  return rotate({c, s}, 1.0 - 0.5 * err * err, err);
}

}  // namespace

double ReferenceModulation::edge_time(double target, double tolerance) const {
  // |theta_ref| << T makes this a contraction around t = target.  With
  // no modulation the Newton loop would return target (its first step
  // is -0).
  if (amplitude == 0.0) return target;
  double s0, c0;
  __builtin_sincos(omega * target + phase, &s0, &c0);
  return target + edge_offset(amplitude, omega, s0, c0,
                              edge_search_tolerance(tolerance, target),
                              [](double x, double& s, double& c) {
                                __builtin_sincos(x, &s, &c);
                              });
}

void detail::small_angle_sincos(double x, double& s, double& c) {
  sincos_series(x, s, c);
}

GridPhasor::GridPhasor(double nu, double phase, double period)
    : nu_(nu),
      phase_(phase),
      period_(period),
      inv_period_(period > 0.0 ? 1.0 / period : 0.0) {
  if (period_ > 0.0) step_ = exact_phasor(nu_, period_, 0.0, 0.0);
}

cplx GridPhasor::direct(double t) const {
  double s, c;
  __builtin_sincos(nu_ * t + phase_, &s, &c);
  return {c, s};
}

cplx GridPhasor::at_index(std::int64_t k) {
  if (k == k_) return z_;
  // k_ starts at the int64 minimum, so k_ + 1 cannot overflow and
  // matches no index (|k| < 2^52).
  const bool follows = k == k_ + 1;
  if (follows && steps_ + 1 < kReanchorPeriods) {
    z_ = rotate(z_, step_.real(), step_.imag());
    ++steps_;
  } else {
    const double kd = static_cast<double>(k);
    const double x = kd * period_;
    const cplx anchor =
        exact_phasor(nu_, x, product_error(kd, period_, x), phase_);
    if (follows && obs::enabled()) {
      static obs::Gauge& drift = obs::gauge("timedomain.max_phasor_drift");
      drift.raise(std::abs(rotate(z_, step_.real(), step_.imag()) - anchor));
    }
    z_ = anchor;
    steps_ = 0;
  }
  k_ = k;
  return z_;
}

cplx GridPhasor::at(double t) {
  if (period_ > 0.0) {
    const double q = t * inv_period_;
    if (std::abs(q) < 0x1p52) {
      // Nearest whole period, without a libm rounding call.
      auto k = static_cast<std::int64_t>(q);
      const double r = q - static_cast<double>(k);
      if (r > 0.5) ++k;
      if (r < -0.5) --k;
      const double kd = static_cast<double>(k);
      const double x = kd * period_;
      if (std::abs(nu_ * (t - x)) <= detail::kSmallAngleMax) {
        // The offset from the exact k T, which the anchor stands for.
        const double offset = (t - x) - product_error(kd, period_, x);
        double s, c;
        sincos_series(nu_ * offset, s, c);
        return rotate(at_index(k), c, s);
      }
    }
    phasor_fallback_counter().add();
  }
  return direct(t);
}

ReferenceEdges::ReferenceEdges(const ReferenceModulation& mod, double period)
    : mod_(mod),
      period_(period),
      // No modulation, no phasor: a zero period skips the step's sincos.
      phasor_(mod.omega, mod.phase, mod.amplitude != 0.0 ? period : 0.0) {}

double ReferenceEdges::edge(std::int64_t n) {
  if (n == n_) return t_;
  const double target = static_cast<double>(n) * period_;
  n_ = n;
  if (mod_.amplitude == 0.0) return t_ = target;
  const cplx z = phasor_.at_index(n);
  t_ = target +
       edge_offset(mod_.amplitude, mod_.omega, z.imag(), z.real(),
                   edge_search_tolerance(kEdgeTolerance * period_, target),
                   [](double x, double& s, double& c) {
                     sincos_series(x, s, c);
                   });
  return t_;
}

namespace {

double sinc(double x) { return x == 0.0 ? 1.0 : std::sin(x) / x; }

/// Integral of w(t) e^{-j nu t} over [t0, t0 + width], w the Hann window
/// of ReferenceModulation::hann_bin: its three sinc lobes, 2 pi / width
/// apart, about the window's centre.
cplx hann_exponential_bin(double nu, double t0, double width) {
  const double x = 0.5 * nu * width;
  const double lobes = 0.5 * sinc(x) + 0.25 * sinc(x - std::numbers::pi) +
                       0.25 * sinc(x + std::numbers::pi);
  const double tc = t0 + 0.5 * width;
  return width * lobes * cplx{std::cos(nu * tc), -std::sin(nu * tc)};
}

/// Every ThetaBin rejection names the bin's output frequency.
std::string bin_error(double omega, const char* what) {
  std::ostringstream os;
  os << "theta bin at omega = " << omega << " rad/s: " << what;
  return os.str();
}

}  // namespace

cplx ReferenceModulation::hann_bin(double omega_bin, double t0,
                                   double width) const {
  if (amplitude == 0.0) return 0.0;
  // a sin(w t + p) = (a / 2j) (e^{jp} e^{jwt} - e^{-jp} e^{-jwt}).
  const cplx up = std::polar(1.0, phase) *
                  hann_exponential_bin(omega_bin - omega, t0, width);
  const cplx down = std::polar(1.0, -phase) *
                    hann_exponential_bin(omega_bin + omega, t0, width);
  return amplitude / cplx{0.0, 2.0} * (up - down);
}

ThetaBin::ThetaBin(double omega, double t0, double width, RVector x0,
                   double period)
    : omega_(omega),
      t0_(t0),
      width_(width),
      spacing_(2.0 * std::numbers::pi / width),
      carrier_(-omega, 0.0, period),
      window_(spacing_, -spacing_ * t0, period),
      x0_(std::move(x0)) {
  HTMPLL_REQUIRE(std::isfinite(omega),
                 bin_error(omega, "bin frequency must be finite"));
  HTMPLL_REQUIRE(width > 0.0 && std::isfinite(width),
                 bin_error(omega, "window width must be positive and finite"));
  HTMPLL_REQUIRE(std::isfinite(t0),
                 bin_error(omega, "window start must be finite"));
  HTMPLL_REQUIRE(period >= 0.0 && std::isfinite(period),
                 bin_error(omega, "grid period must be finite and "
                                  "non-negative"));
  nu_[0] = omega;
  nu_[1] = omega - spacing_;
  nu_[2] = omega + spacing_;
  for (double nu : nu_) {
    HTMPLL_REQUIRE(std::abs(nu) >= kMinDcOffset * spacing_,
                   bin_error(omega, "a window frequency (omega or omega -+ "
                                    "2 pi / width) lies within 0.01 bins of "
                                    "DC, where A - j nu I is singular"));
  }
}

void ThetaBin::window_phasors(cplx e, cplx r, cplx out[3]) {
  out[0] = e;
  out[1] = rotate(e, r.real(), r.imag());
  out[2] = rotate(e, r.real(), -r.imag());
}

void ThetaBin::add_segment(double t_a, double t_b, double u) {
  if (u == 0.0 || !(t_b > t_a)) return;
  const double h = t_b - t_a;
  // int_{t_a}^{t_b} e^{-j nu t} dt = h sinc(nu h / 2) e^{-j nu t_mid}:
  // the phasors at the midpoint and sin(nu h / 2) for all three nu from
  // the half-angle sincos of omega h and s h.
  const double t_mid = t_a + 0.5 * h;
  cplx p[3];
  window_phasors(carrier_.at(t_mid), window_.at(t_mid), p);
  double sa, ca, sb, cb;
  sincos_series(0.5 * omega_ * h, sa, ca);
  sincos_series(0.5 * spacing_ * h, sb, cb);
  const double half_sin[3] = {sa, sa * cb - ca * sb, sa * cb + ca * sb};
  for (int k = 0; k < 3; ++k) {
    const double x = 0.5 * nu_[k] * h;
    const double s = x == 0.0 ? 1.0 : half_sin[k] / x;
    u_[k] += (u * h * s) * p[k];
  }
}

cplx ThetaBin::finish(const StateSpace& sys, const RVector& x1) const {
  const std::size_t n = sys.order();
  HTMPLL_REQUIRE(x0_.size() == n && x1.size() == n,
                 "theta bin: state dimension mismatch");
  cplx p0[3], p1[3];
  window_phasors(carrier_.direct(t0_), window_.direct(t0_), p0);
  const double t1 = t0_ + width_;
  window_phasors(carrier_.direct(t1), window_.direct(t1), p1);
  cplx bins[3];
  for (int k = 0; k < 3; ++k) {
    CMatrix m(n, n);
    CVector v(n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t c = 0; c < n; ++c) m(i, c) = sys.a(i, c);
      m(i, i) -= cplx{0.0, nu_[k]};
      v[i] = x1[i] * p1[k] - x0_[i] * p0[k] - sys.b(i, 0) * u_[k];
    }
    bool singular = false;
    try {
      bins[k] = solve(m, v)[n - 1];
    } catch (const std::domain_error&) {
      singular = true;
    }
    HTMPLL_REQUIRE(!singular && std::isfinite(bins[k].real()) &&
                       std::isfinite(bins[k].imag()),
                   bin_error(omega_, "the solve of A - j nu I met a "
                                     "singular pivot"));
  }
  return 0.5 * bins[0] - 0.25 * bins[1] - 0.25 * bins[2];
}

void UniformSamples::clear() {
  t.clear();
  theta.clear();
  theta_ref.clear();
}

void UniformSamples::record_segment(const PiecewiseExactIntegrator& integ,
                                    const ReferenceModulation& mod,
                                    double interval, double t_begin,
                                    double t_end, double u,
                                    std::int64_t& next) {
  // Uniform-grid samples need theta alone, which the spectral
  // integrator contracts from the modal theta row per offset instead of
  // building a propagator; one call covers the whole segment.
  const std::size_t first = theta.size();
  offsets_.clear();
  while (true) {
    const double ts = static_cast<double>(next) * interval;
    if (ts > t_end) break;
    if (ts >= t_begin) {
      t.push_back(ts);
      offsets_.push_back(ts - t_begin);
      theta_ref.push_back(mod.value(ts));
    }
    ++next;
  }
  if (offsets_.empty()) return;
  theta.resize(first + offsets_.size());
  integ.peek_last_many(offsets_.data(), offsets_.size(), u,
                       theta.data() + first);
}

namespace {

std::string recording_horizon_error(double t_end) {
  std::ostringstream os;
  os << "run_until: recording to t_end = " << t_end
     << " s needs more theta samples than a stream can hold";
  return os.str();
}

std::string monotone_error(double product) {
  std::ostringstream os;
  os << "reference modulation |amplitude * omega| = " << product
     << " must be below 1, or the reference phase is not monotone";
  return os.str();
}

}  // namespace

void validate_transient_setup(const ReferenceModulation& mod,
                              double sample_interval, double period) {
  HTMPLL_REQUIRE(std::abs(mod.amplitude) < 0.25 * period,
                 "reference modulation must stay small-signal (< T/4)");
  HTMPLL_REQUIRE(std::isfinite(mod.omega),
                 "reference modulation omega must be finite");
  HTMPLL_REQUIRE(std::isfinite(mod.phase),
                 "reference modulation phase must be finite");
  // d/dt (t + a sin(w t + p)) = 1 + a w cos(w t + p) reaches 0 once
  // |a w| >= 1: the reference phase stops increasing and an edge
  // equation can have several roots.
  const double product = std::abs(mod.amplitude * mod.omega);
  HTMPLL_REQUIRE(product < 1.0, monotone_error(product));
  HTMPLL_REQUIRE(sample_interval >= 0.0 && std::isfinite(sample_interval),
                 "sample_interval must be finite and non-negative");
}

namespace {

/// Events within this fraction of T of a step's end time fire together
/// with it (commit_step / process_edges).
constexpr double kCoincidenceWindow = 1e-9;

/// A VCO edge search skips Newton when g = t + theta(t) - target is
/// still below -kHorizonMargin * T * max(1, |g'|) at the step horizon:
/// the crossing then lies beyond the coincidence window with 4x
/// headroom.
constexpr double kHorizonMargin = 4.0 * kCoincidenceWindow;

/// PFD edges processed across all simulators in the process (the
/// per-instance count stays available via events()).
obs::Counter& pfd_event_counter() {
  static obs::Counter& c = obs::counter("timedomain.pfd_events");
  return c;
}

}  // namespace

double PulseHistory::max_abs() const {
  double m = 0.0;
  for (std::size_t i = 0; i < size_; ++i) m = std::max(m, std::abs(buf_[i]));
  return m;
}

PllTransientSim::PllTransientSim(const PllParameters& params,
                                 ReferenceModulation mod, TransientConfig cfg)
    : params_(validate_pll_parameters(params)),
      mod_(mod),
      cfg_(cfg),
      t_period_(params.period()),
      icp_(params.icp),
      kvco_(params.kvco),
      // The state space realizes the impedance Z_LF(s) alone; the
      // charge-pump current (+-Icp) is the input, so Icp must not be
      // folded into the system too.
      aug_(augment_with_phase(to_state_space(params.filter.impedance()),
                              params.kvco)),
      ref_edges_(mod_, t_period_) {
  validate_transient_setup(mod_, cfg_.sample_interval, t_period_);
  if (cfg_.sample_interval == 0.0) cfg_.sample_interval = t_period_ / 8.0;
}

double PllTransientSim::theta() const { return aug_.last_state(); }

double PllTransientSim::control_output() const {
  return aug_.output(pfd_.pump_current(icp_) +
                     (leak_on_ ? leak_current_ : 0.0));
}

void PllTransientSim::set_noise_current(double sigma, unsigned seed) {
  HTMPLL_REQUIRE(!started_, "noise must be configured before run_until");
  HTMPLL_REQUIRE(sigma >= 0.0 && std::isfinite(sigma),
                 "noise sigma must be non-negative and finite");
  noise_sigma_ = sigma;
  noise_rng_.seed(seed);
  noise_current_ = sigma > 0.0 ? sigma * noise_dist_(noise_rng_) : 0.0;
}

void PllTransientSim::set_leakage(double current, double window) {
  HTMPLL_REQUIRE(!started_, "leakage must be configured before run_until");
  HTMPLL_REQUIRE(std::isfinite(current), "leakage current must be finite");
  HTMPLL_REQUIRE(window >= 0.0 && window < t_period_,
                 "leakage window must lie within one period");
  leak_current_ = current;
  leak_window_ = window;
}

void PllTransientSim::clear_samples() { samples_.clear(); }

void PllTransientSim::set_initial_theta(double theta0) {
  HTMPLL_REQUIRE(!started_, "initial conditions must precede run_until");
  HTMPLL_REQUIRE(std::isfinite(theta0), "initial theta must be finite");
  RVector x = aug_.state();
  x.back() = theta0;
  aug_.set_state(std::move(x));
}

void PllTransientSim::set_initial_frequency_offset(double relative_offset) {
  HTMPLL_REQUIRE(!started_, "initial conditions must precede run_until");
  HTMPLL_REQUIRE(std::isfinite(relative_offset),
                 "initial frequency offset must be finite");
  // Choose a filter state x with C x = relative_offset / kvco along the
  // minimum-norm direction, so theta' = kvco * y = relative_offset at t=0.
  const StateSpace& ss = aug_.system();
  const std::size_t n = ss.order();
  double cc = 0.0;
  for (std::size_t j = 0; j < n; ++j) cc += ss.c(0, j) * ss.c(0, j);
  HTMPLL_REQUIRE(cc > 0.0, "filter has no controllable output direction");
  const double target_y = relative_offset / kvco_;
  RVector x = aug_.state();
  for (std::size_t j = 0; j < n; ++j) x[j] = ss.c(0, j) * target_y / cc;
  aug_.set_state(std::move(x));
}

double PllTransientSim::next_vco_edge(double target, double current,
                                      double horizon) const {
  // Solve g(t) = t + theta(t) - target = 0 with theta propagated exactly
  // from the segment start under the held charge-pump current.  One
  // peek_theta gives g and g' = 1 + theta' = 1 + (A x + B u)_theta.
  const auto g_at = [&](double t) {
    const ThetaRows r = aug_.peek_theta(t - t_, current);
    return std::pair{t + r.theta - target, 1.0 + r.slope};
  };
  double t = std::max(t_, target - theta());
  if (t > horizon && horizon >= t_) {
    // Newton would start past the step's next event.  One evaluation at
    // the horizon (the step the commit takes when the search is skipped)
    // decides: with the VCO phase clearly short of the target there,
    // whichever way g' points, the edge cannot fire in this step and the
    // search is skipped.  Searching anyway is what made DOWN-state steps
    // expensive: past the horizon 1 + kvco y drops toward zero or below,
    // and Newton on the held current's extrapolation diverges into the
    // bisection fallback, whose edge lies past the horizon and is
    // discarded.
    const auto [g, gp] = g_at(horizon);
    if (g < -kHorizonMargin * t_period_ * std::max(1.0, std::abs(gp))) {
      return std::numeric_limits<double>::infinity();
    }
  }
  // Newton returns the last point it evaluated, so the commit finds that
  // step's scalars in the memo.
  const double tol =
      edge_search_tolerance(kEdgeTolerance * t_period_, target);
  double dt = 0.0;
  for (int it = 0; it < 60; ++it) {
    auto [g, gp] = g_at(t);
    // theta' <= -1 would mean non-positive instantaneous VCO frequency;
    // treat as a degenerate large transient and damp the step.
    if (gp < 0.1) gp = 1.0;
    dt = -g / gp;
    if (std::abs(dt) <= tol) return t;
    const double next = std::max(t + dt, t_);
    if (!std::isfinite(next)) break;  // diverged: never evaluate there
    t = next;
  }
  // Payload: the last Newton step in periods (inf or NaN once it
  // diverged).
  obs::diag_event(obs::DiagReason::kVcoEdgeBisectionFallback,
                  std::abs(dt) / t_period_);
  // Bisection fallback on g over an expanding bracket; g is continuous
  // and eventually positive.
  double lo = t_;
  if (g_at(lo).first >= 0.0) return t_;  // edge is (numerically) overdue
  double hi = t_ + t_period_;
  for (int grow = 0; grow < 64; ++grow) {
    if (g_at(hi).first >= 0.0) break;
    hi = t_ + 2.0 * (hi - t_);
  }
  double mid = lo;
  for (int it = 0; it < 200; ++it) {
    mid = 0.5 * (lo + hi);
    if (g_at(mid).first < 0.0) {
      lo = mid;
    } else {
      hi = mid;
    }
    if (hi - lo <= tol) break;
  }
  return mid;
}

void PllTransientSim::record_range(double t_begin, double t_end,
                                   double current) {
  if (bin_ != nullptr) bin_->add_segment(t_begin, t_end, current);
  if (!cfg_.record) {
    next_sample_ = static_cast<std::int64_t>(
                       std::floor(t_end / cfg_.sample_interval)) + 1;
    return;
  }
  samples_.record_segment(aug_, mod_, cfg_.sample_interval, t_begin, t_end,
                          current, next_sample_);
}

void PllTransientSim::process_edges(double t_evt, double t_ref, double t_vco) {
  const double eps = kCoincidenceWindow * t_period_;
  const TriStatePfd::State before = pfd_.state();
  if (t_ref <= t_evt + eps) {
    pfd_.on_reference_edge();
    ++n_ref_;
    ++events_;
    pfd_event_counter().add();
    if (noise_sigma_ > 0.0) {
      noise_current_ = noise_sigma_ * noise_dist_(noise_rng_);
    }
  }
  if (t_vco <= t_evt + eps) {
    pfd_.on_vco_edge();
    ++n_vco_;
    ++events_;
    pfd_event_counter().add();
  }
  const TriStatePfd::State after = pfd_.state();
  // Track charge-pump pulse widths for lock detection.  Both edges
  // inside the coincidence window take the PFD from idle straight back
  // to idle: a zero-width pulse, so a loop in lock still fills the
  // history.
  if (before == TriStatePfd::State::kIdle &&
      after != TriStatePfd::State::kIdle) {
    pulse_active_ = true;
    pulse_start_ = t_evt;
  } else if (pulse_active_ && after == TriStatePfd::State::kIdle) {
    pulse_active_ = false;
    recent_pulse_widths_.push(t_evt - pulse_start_);
  } else if (before == TriStatePfd::State::kIdle) {
    recent_pulse_widths_.push(0.0);
  }
}

TransientStepPlan PllTransientSim::plan_step(double t_end) const {
  const bool leaking = leak_current_ != 0.0 && leak_window_ > 0.0;
  TransientStepPlan plan;
  plan.current = pfd_.pump_current(icp_) +
                 (leak_on_ ? leak_current_ : 0.0) + noise_current_;
  plan.t_ref = std::max(ref_edges_.edge(n_ref_), t_);
  plan.t_leak = leaking ? (static_cast<double>(n_leak_) * t_period_ +
                           (leak_on_ ? leak_window_ : 0.0))
                        : std::numeric_limits<double>::infinity();
  plan.t_vco = next_vco_edge(static_cast<double>(n_vco_) * t_period_,
                             plan.current,
                             std::min({plan.t_ref, plan.t_leak, t_end}));
  plan.t_evt = std::min({plan.t_ref, plan.t_vco, plan.t_leak, t_end});
  return plan;
}

bool PllTransientSim::commit_step(const TransientStepPlan& plan) {
  record_range(t_, plan.t_evt, plan.current);
  aug_.advance(plan.t_evt - t_, plan.current);
  const bool leaking = leak_current_ != 0.0 && leak_window_ > 0.0;
  const double eps = kCoincidenceWindow * t_period_;
  t_ = plan.t_evt;
  bool fired = false;
  if (leaking && plan.t_leak <= plan.t_evt + eps) {
    if (leak_on_) {
      leak_on_ = false;
      ++n_leak_;
    } else {
      leak_on_ = true;
    }
    fired = true;
  }
  if (plan.t_ref <= plan.t_evt + eps || plan.t_vco <= plan.t_evt + eps) {
    process_edges(plan.t_evt, plan.t_ref, plan.t_vco);
    fired = true;
  }
  return fired;
}

void PllTransientSim::run_until(double t_end) {
  HTMPLL_REQUIRE(std::isfinite(t_end), "run_until: t_end must be finite");
  if (cfg_.record && t_end > t_) {
    // Reserve the whole recording horizon up front instead of growing
    // the three streams geometrically mid-run.
    const double span = (t_end - t_) / cfg_.sample_interval;
    const std::size_t room = samples_.t.max_size() - samples_.t.size();
    HTMPLL_REQUIRE(span < static_cast<double>(room) - 2.0,
                   recording_horizon_error(t_end));
    const std::size_t add = static_cast<std::size_t>(span) + 2;
    samples_.t.reserve(samples_.t.size() + add);
    samples_.theta.reserve(samples_.theta.size() + add);
    samples_.theta_ref.reserve(samples_.theta_ref.size() + add);
  }
  started_ = true;
  while (t_ < t_end) {
    if (!commit_step(plan_step(t_end))) break;  // reached t_end first
  }
}

void PllTransientSim::run_periods(double n) {
  run_until(t_ + n * t_period_);
}

cplx PllTransientSim::measure_theta_bin(double omega, double width) {
  return detail::run_theta_bin_window(
      bin_, aug_, t_, omega, width, t_period_,
      [this](double t_end) { run_until(t_end); });
}

double PllTransientSim::max_recent_pulse_width() const {
  return recent_pulse_widths_.max_abs();
}

bool PllTransientSim::is_locked(double tol) const {
  if (recent_pulse_widths_.size() < PulseHistory::kCapacity) return false;
  return max_recent_pulse_width() < tol;
}

}  // namespace htmpll
