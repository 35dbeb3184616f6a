#include "htmpll/timedomain/pll_sim.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numbers>
#include <sstream>
#include <stdexcept>
#include <string>

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

double ReferenceModulation::edge_time(double target, double tolerance) const {
  // |theta_ref| << T makes this a contraction around t = target.  With
  // no modulation the loop below returns target (its first step is -0).
  if (amplitude == 0.0) return target;
  double t = target - value(target);
  for (int it = 0; it < 50; ++it) {
    double s, c;
    __builtin_sincos(omega * t + phase, &s, &c);
    const double g = t + amplitude * s - target;
    const double gp = 1.0 + amplitude * omega * c;
    const double dt = -g / gp;
    t += dt;
    if (std::abs(dt) <= tolerance) break;
  }
  return t;
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

/// The three window phasors at t: e^{-j omega t} times 1,
/// e^{+j s (t - t0)} and e^{-j s (t - t0)} (s the bin spacing) -- the
/// e^{-j nu t} of nu = omega, omega - s, omega + s with the Hann
/// window's e^{-+j s t0} factors folded in.
void window_phasors(double omega, double spacing, double t0, double t,
                    cplx out[3]) {
  double se, ce, sr, cr;
  __builtin_sincos(omega * t, &se, &ce);
  __builtin_sincos(spacing * (t - t0), &sr, &cr);
  const cplx e{ce, -se};
  out[0] = e;
  out[1] = e * cplx{cr, sr};
  out[2] = e * cplx{cr, -sr};
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

ThetaBin::ThetaBin(double omega, double t0, double width, RVector x0)
    : omega_(omega),
      t0_(t0),
      width_(width),
      spacing_(2.0 * std::numbers::pi / width),
      x0_(std::move(x0)) {
  HTMPLL_REQUIRE(std::isfinite(omega),
                 bin_error(omega, "bin frequency must be finite"));
  HTMPLL_REQUIRE(width > 0.0 && std::isfinite(width),
                 bin_error(omega, "window width must be positive and finite"));
  HTMPLL_REQUIRE(std::isfinite(t0),
                 bin_error(omega, "window start must be finite"));
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

void ThetaBin::add_segment(double t_a, double t_b, double u) {
  if (u == 0.0 || !(t_b > t_a)) return;
  const double h = t_b - t_a;
  // int_{t_a}^{t_b} e^{-j nu t} dt = h sinc(nu h / 2) e^{-j nu t_mid}:
  // the phasor at the midpoint and sin(nu h / 2) for all three nu from
  // the half-angle sincos of omega h and s h.
  cplx p[3];
  window_phasors(omega_, spacing_, t0_, t_a + 0.5 * h, p);
  double sa, ca, sb, cb;
  __builtin_sincos(0.5 * omega_ * h, &sa, &ca);
  __builtin_sincos(0.5 * spacing_ * h, &sb, &cb);
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
  window_phasors(omega_, spacing_, t0_, t0_, p0);
  window_phasors(omega_, spacing_, t0_, t0_ + width_, p1);
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

void validate_modulation(const ReferenceModulation& mod, double period) {
  HTMPLL_REQUIRE(std::abs(mod.amplitude) < 0.25 * period,
                 "reference modulation must stay small-signal (< T/4)");
  HTMPLL_REQUIRE(std::isfinite(mod.omega),
                 "reference modulation omega must be finite");
  HTMPLL_REQUIRE(std::isfinite(mod.phase),
                 "reference modulation phase must be finite");
}

void validate_transient_setup(const ReferenceModulation& mod,
                              const TransientConfig& cfg, double period) {
  validate_modulation(mod, period);
  HTMPLL_REQUIRE(cfg.sample_interval >= 0.0 &&
                     std::isfinite(cfg.sample_interval),
                 "sample_interval must be finite and non-negative");
}

namespace {

/// Events within this fraction of T of a step's end time fire together
/// with it (commit_step / process_edges).
constexpr double kCoincidenceWindow = 1e-9;

/// A VCO edge search skips Newton when g = t + theta(t) - target is
/// still below -kHorizonMargin * T * max(1, g') at the step horizon: the
/// crossing then lies beyond the coincidence window with 4x headroom.
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
                              params.kvco),
           cfg.use_spectral_propagators),
      theta_index_(aug_.order() - 1) {
  validate_transient_setup(mod_, cfg_, t_period_);
  if (cfg_.sample_interval == 0.0) cfg_.sample_interval = t_period_ / 8.0;
}

double PllTransientSim::theta() const { return aug_.state()[theta_index_]; }

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
  x[theta_index_] = theta0;
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

double PllTransientSim::next_reference_edge(double target) const {
  if (target != ref_edge_target_) {
    ref_edge_time_ =
        mod_.edge_time(target, kEdgeTolerance * t_period_);
    ref_edge_target_ = target;
  }
  return std::max(ref_edge_time_, t_);
}

double PllTransientSim::next_vco_edge(double target, double current,
                                      double horizon) const {
  // Solve t + theta(t) = target with theta propagated exactly from the
  // segment start under the held charge-pump current.
  const double theta_now = theta();
  double t = std::max(t_, target - theta_now);
  if (t > horizon && horizon >= t_) {
    // Newton would start past the step's next event.  One peek at the
    // horizon (the step the commit then takes, so the commit reuses its
    // propagator) decides: with the VCO phase still advancing and
    // clearly short of the target there, the edge cannot fire in this
    // step and the search is skipped.  Searching anyway is what made
    // DOWN-state steps expensive: far past the horizon 1 + kvco y drops
    // toward zero and Newton diverges into the bisection fallback.
    aug_.peek_into(horizon - t_, current, peek_scratch_);
    const double g = horizon + peek_scratch_[theta_index_] - target;
    const double gp =
        1.0 + kvco_ * aug_.system().output(peek_scratch_, current);
    if (gp > 0.0 &&
        g < -kHorizonMargin * t_period_ * std::max(1.0, gp)) {
      return std::numeric_limits<double>::infinity();
    }
  }
  bool converged = false;
  double dt = 0.0;
  for (int it = 0; it < 60; ++it) {
    const double h = std::max(0.0, t - t_);
    aug_.peek_into(h, current, peek_scratch_);
    const RVector& x = peek_scratch_;
    const double g = t + x[theta_index_] - target;
    const double y = aug_.system().output(x, current);
    double gp = 1.0 + kvco_ * y;
    // theta' <= -1 would mean non-positive instantaneous VCO frequency;
    // treat as a degenerate large transient and damp the step.
    if (gp < 0.1) gp = 1.0;
    dt = -g / gp;
    t += dt;
    if (t < t_) t = t_;
    if (std::abs(dt) <= kEdgeTolerance * t_period_) {
      converged = true;
      break;
    }
  }
  if (!converged) {
    // Payload: the last Newton step in periods (NaN once it diverged).
    obs::diag_event(obs::DiagReason::kVcoEdgeBisectionFallback,
                    std::abs(dt) / t_period_);
    // Bisection fallback on g(t) = t + theta(t) - target over an
    // expanding bracket; g is continuous and eventually positive.
    double lo = t_;
    aug_.peek_into(0.0, current, peek_scratch_);
    double g_lo = lo + peek_scratch_[theta_index_] - target;
    if (g_lo >= 0.0) return t_;  // edge is (numerically) overdue
    double hi = t_ + t_period_;
    for (int grow = 0; grow < 64; ++grow) {
      aug_.peek_into(hi - t_, current, peek_scratch_);
      const double g_hi = hi + peek_scratch_[theta_index_] - target;
      if (g_hi >= 0.0) break;
      hi = t_ + 2.0 * (hi - t_);
    }
    for (int it = 0; it < 200; ++it) {
      const double mid = 0.5 * (lo + hi);
      aug_.peek_into(mid - t_, current, peek_scratch_);
      const double g_mid = mid + peek_scratch_[theta_index_] - target;
      if (g_mid < 0.0) {
        lo = mid;
      } else {
        hi = mid;
      }
      if (hi - lo <= kEdgeTolerance * t_period_) break;
    }
    t = 0.5 * (lo + hi);
  }
  return std::max(t, t_);
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
  plan.t_ref = next_reference_edge(static_cast<double>(n_ref_) * t_period_);
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
  started_ = true;
  if (cfg_.record && t_end > t_) {
    // Reserve the whole recording horizon up front instead of growing
    // the three streams geometrically mid-run.
    const std::size_t add = static_cast<std::size_t>(
        (t_end - t_) / cfg_.sample_interval) + 2;
    samples_.t.reserve(samples_.t.size() + add);
    samples_.theta.reserve(samples_.theta.size() + add);
    samples_.theta_ref.reserve(samples_.theta_ref.size() + add);
  }
  while (t_ < t_end) {
    if (!commit_step(plan_step(t_end))) break;  // reached t_end first
  }
}

void PllTransientSim::run_periods(double n) {
  run_until(t_ + n * t_period_);
}

cplx PllTransientSim::measure_theta_bin(double omega, double width) {
  return detail::run_theta_bin_window(
      bin_, aug_, t_, omega, width,
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
