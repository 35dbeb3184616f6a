// Event-driven behavioral transient simulator of the charge-pump PLL of
// Fig. 1/Fig. 3 -- the C++ replacement for the paper's Matlab/Simulink
// time-marching verification.
//
// Signal model (eqs. 14-15): rising edges of the reference occur where
// t + theta_ref(t) = n T and rising edges of the (prescaled) VCO where
// t + theta(t) = n T, with theta' = kvco * y(t) driven by the loop-filter
// output y.  Between PFD events the charge-pump current is constant, so
// the filter+phase state is propagated *exactly* (matrix exponential) and
// edge instants are located by Newton iteration with exact propagation
// inside the bracket -- no time-step discretization error at all.  The
// VCO-edge search is bounded by the step's next reference/leakage event:
// an edge that cannot fire before it is not searched for.
#pragma once

#include <bit>
#include <cstdint>
#include <limits>
#include <random>
#include <vector>

#include "htmpll/lti/loop_filter.hpp"
#include "htmpll/timedomain/loop_filter_sim.hpp"
#include "htmpll/timedomain/pfd.hpp"

namespace htmpll {

/// Small-signal phase modulation applied to the reference:
/// theta_ref(t) = amplitude * sin(omega t + phase) (in seconds, like the
/// paper's time-normalized phase).
struct ReferenceModulation {
  double amplitude = 0.0;
  double omega = 0.0;
  double phase = 0.0;

  double value(double t) const;
  double slope(double t) const;

  /// Reference edge for `target` = n T: solves t + value(t) = target by
  /// Newton from t = target - value(target), stopping once a step is
  /// within max(`tolerance`, 4 ulp(target)) seconds (at most 50 steps),
  /// and returns t unclamped.  One libm sincos of omega target + phase
  /// is taken; each step rotates it by libm's sincos of
  /// omega (t - target).  The stateless oracle of ReferenceEdges, which
  /// the simulators step instead.
  double edge_time(double target, double tolerance) const;

  /// Hann-windowed bin of value(t) at `omega_bin` over the window
  /// [t0, t0 + width], in closed form: the integral of
  /// w(t) value(t) e^{-j omega_bin t} dt with
  /// w(t) = (1 - cos(2 pi (t - t0) / width)) / 2 -- the same bin
  /// ThetaBin takes of theta.
  cplx hann_bin(double omega_bin, double t0, double width) const;
};

/// Newton convergence tolerance of the event-driven simulators' edge
/// times, relative to T.
inline constexpr double kEdgeTolerance = 1e-13;

namespace detail {

/// Largest |x| small_angle_sincos takes.  The angles the event loop
/// meets in lock stay below it: an edge Newton's rotation by omega d,
/// |d| <= |amplitude|; a pulse midpoint's offset from its period times
/// |nu| <= 8.5 w0 (a band |n| <= 8 bin), up to about 0.14 at the
/// probes' default 1e-3 T amplitude; and half a short pulse's width
/// times nu.
inline constexpr double kSmallAngleMax = 0.25;

/// sin x and cos x for |x| <= kSmallAngleMax from their Taylor series,
/// to x^7 and x^6 up to |x| = 2^-6 and to x^13 and x^12 above (the
/// first dropped terms are below 1e-19 relative), within 1 ulp of
/// libm's.  Outside the range, libm's sincos; each such call counts in
/// timedomain.phasor_fallbacks.
void small_angle_sincos(double x, double& s, double& c);

/// The gap from a finite a >= 0 up to the next double,
/// std::nextafter(a, +inf) - a, from the bit pattern with no libm call:
/// the edge searches' 4-ulp stop.
inline double ulp_above(double a) {
  return std::bit_cast<double>(std::bit_cast<std::uint64_t>(a) + 1) - a;
}

}  // namespace detail

/// The unit phasor e^{j (nu t + phase)} of one frequency, stepped along
/// the reference grid t = k T as a complex rotator: from index k to
/// k + 1 it costs one complex multiply by e^{j nu T}.  It re-anchors
/// every kReanchorPeriods periods and on any index that does not follow
/// the last one, so the rotation error never builds up over more than
/// kReanchorPeriods multiplies.  An anchor is libm's sincos of the
/// rounded angle nu (k T) + phase, turned by that angle's rounding
/// errors, so it stands for the exact angle (as does the step
/// e^{j nu T}): rounding the angle would cost up to ulp(nu k T) / 2 at
/// every anchor, shared by the periods up to the next.  Off the grid,
/// at(t) rotates the anchor at the nearest whole period by the
/// small-angle series.  Per-instance state: each simulator owns its
/// own.
class GridPhasor {
 public:
  static constexpr int kReanchorPeriods = 64;

  /// With period 0 there is no grid and every at() takes libm.
  GridPhasor(double nu, double phase, double period);

  /// e^{j (nu k T + phase)}, on a grid (period > 0): an anchor or the
  /// previous index's phasor times e^{j nu T}.  While obs records, each
  /// re-anchor after a full run of steps raises
  /// timedomain.max_phasor_drift to |rotated - anchor|.
  cplx at_index(std::int64_t k);
  /// e^{j (nu t + phase)}: at_index(k), k the whole period nearest t,
  /// rotated by the small-angle series of nu (t - k T), or direct(t)
  /// when that angle exceeds detail::kSmallAngleMax (counted in
  /// timedomain.phasor_fallbacks).
  cplx at(double t);
  /// e^{j (nu t + phase)} from libm's sincos of the rounded angle, with
  /// no grid.
  cplx direct(double t) const;

 private:
  double nu_;
  double phase_;
  double period_;
  double inv_period_;
  cplx step_;  ///< e^{j nu T}
  cplx z_;     ///< phasor at index k_
  std::int64_t k_ = std::numeric_limits<std::int64_t>::min();
  int steps_ = 0;  ///< rotations since the last anchor
};

/// One simulator's reference edges, solved in period order: edge(n)
/// runs ReferenceModulation::edge_time's Newton for n T at
/// kEdgeTolerance T, with the start phasor e^{j (omega n T + phase)}
/// from a GridPhasor and each Newton rotation from the small-angle
/// series instead of libm.  It agrees with edge_time within that stop
/// rule plus the rounding of the double phase omega n T + phase, which
/// edge_time carries and the GridPhasor does not.  The last edge is
/// kept: a simulator asks for the same index again until the edge
/// fires.  With no modulation the edge is n T exactly, with no phasor
/// work.
class ReferenceEdges {
 public:
  ReferenceEdges(const ReferenceModulation& mod, double period);

  /// The edge of period index n, unclamped.
  double edge(std::int64_t n);

 private:
  ReferenceModulation mod_;
  double period_;
  GridPhasor phasor_;
  std::int64_t n_ = std::numeric_limits<std::int64_t>::min();
  double t_ = 0.0;  ///< edge of index n_
};

struct TransientConfig {
  /// Uniform recording period for theta samples; 0 selects T/8, and a
  /// negative or non-finite value is rejected.
  double sample_interval = 0.0;
  /// Record (t, theta, theta_ref) streams while running.
  bool record = true;
};

/// Uniform-grid recording of the event-driven simulators: theta and
/// theta_ref at the instants k * interval.
struct UniformSamples {
  std::vector<double> t;
  std::vector<double> theta;
  std::vector<double> theta_ref;

  void clear();
  /// Appends every grid instant k * interval in [t_begin, t_end] with
  /// k >= next, advancing next past t_end.  The segment's instants and
  /// theta_ref values are collected first; theta then comes from one
  /// peek_last_many call on `integ` (state at t_begin, held input u).
  void record_segment(const PiecewiseExactIntegrator& integ,
                      const ReferenceModulation& mod, double interval,
                      double t_begin, double t_end, double u,
                      std::int64_t& next);

 private:
  std::vector<double> offsets_;  ///< one segment's offsets from t_begin
};

/// Hann-windowed bin of theta, the last state of the phase-augmented
/// system x' = A x + B u, taken exactly from the held input u instead
/// of from samples.  Integrating d/dt(x e^{-j nu t}) over the window
/// [t0, t1] gives, with no approximation,
///
///   X(nu) = (A - j nu I)^{-1} [x(t1) e^{-j nu t1} - x(t0) e^{-j nu t0}
///                              - B U(nu)],
///   U(nu) = sum over segments [t_a, t_b] of u int e^{-j nu t} dt,
///
/// and the Hann window is three such rectangular bins, at nu = omega and
/// omega -+ 2 pi / width.  A segment of nonzero current never touches
/// the state: its window phasors come from two GridPhasors anchored on
/// whole periods, where pulses sit in lock, and its half-angle factors
/// from the small-angle series, so a short pulse takes no libm call.
/// Closing the window costs one n x n complex solve per frequency.
class ThetaBin {
 public:
  /// Every window frequency must keep this fraction of the bin spacing
  /// 2 pi / width away from DC.  A has the theta integrator's zero
  /// eigenvalue (with the loop filter's, a double one), so A - j nu I is
  /// singular at nu = 0 and the boundary terms cancel ever more as nu
  /// approaches it.  Measured against a Riemann sum over a T/8192.37
  /// record of a loop with DC leakage: 3e-10 relative error at 1e-2
  /// bins from DC, 2.5e-7 at 3e-3 bins and 3.4e-6 at 1e-3 bins.
  static constexpr double kMinDcOffset = 1e-2;

  /// Opens the window [t0, t0 + width] at state x0 for the bin at
  /// `omega` (rad/s, any sign), with segment phasors anchored on the
  /// grid k `period` (0: every phasor from libm).  Throws
  /// std::invalid_argument, naming omega, unless omega and t0 are
  /// finite, width is positive and finite, period is finite and
  /// non-negative and every window frequency keeps kMinDcOffset bins
  /// from DC.
  ThetaBin(double omega, double t0, double width, RVector x0,
           double period = 0.0);

  /// Adds the segment [t_a, t_b] over which the input is held at u:
  /// u e^{-j nu t_a} h phi1(-j nu h) per window frequency, h = t_b - t_a,
  /// evaluated as u h sinc(nu h / 2) e^{-j nu (t_a + t_b) / 2}, which
  /// keeps full relative accuracy on short charge-pump pulses.
  void add_segment(double t_a, double t_b, double u);

  /// Closes the window with the state x1 at t0 + width and returns
  /// int w(t) theta(t) e^{-j omega t} dt, w the Hann window of
  /// ReferenceModulation::hann_bin.  `sys` supplies A and B.  Throws
  /// std::invalid_argument, naming omega, when a solve meets a singular
  /// pivot.
  cplx finish(const StateSpace& sys, const RVector& x1) const;

 private:
  /// e^{-j nu t} of the three window frequencies from the phasors
  /// e^{-j omega t} and e^{j spacing (t - t0)}.
  static void window_phasors(cplx e, cplx r, cplx out[3]);

  double omega_;
  double t0_;
  double width_;
  double spacing_;   ///< 2 pi / width
  double nu_[3];     ///< omega, omega - spacing, omega + spacing
  GridPhasor carrier_;  ///< e^{-j omega t}
  GridPhasor window_;   ///< e^{j spacing (t - t0)}
  RVector x0_;
  cplx u_[3] = {};   ///< U(nu) per window frequency
};

namespace detail {

/// Both event-driven simulators' measure_theta_bin: opens a ThetaBin at
/// the integrator's state, anchored on the simulator's reference grid
/// `period`, points `slot` (the simulator's per-segment hook) at it
/// while `run_until` covers [t0, t0 + width], then closes it at the
/// final state.  `slot` is cleared on every exit, so it never outlives
/// the bin.
template <class RunUntil>
cplx run_theta_bin_window(ThetaBin*& slot,
                          const PiecewiseExactIntegrator& integ, double t0,
                          double omega, double width, double period,
                          RunUntil&& run_until) {
  ThetaBin bin(omega, t0, width, integ.state(), period);
  struct Unhook {
    ThetaBin*& slot;
    ~Unhook() { slot = nullptr; }
  } unhook{slot};
  slot = &bin;
  run_until(t0 + width);
  return bin.finish(integ.system(), integ.state());
}

}  // namespace detail

/// Throws std::invalid_argument unless the modulation is small-signal
/// (|amplitude| < T/4) with finite omega and phase, the reference phase
/// t + theta_ref(t) is strictly increasing (|amplitude omega| < 1), so
/// each edge equation has one root, and sample_interval is finite and
/// non-negative.  Called by every transient simulator's constructor.
void validate_transient_setup(const ReferenceModulation& mod,
                              double sample_interval, double period);

/// One planned event-loop iteration of PllTransientSim: the held
/// charge-pump current over the segment and the candidate event times,
/// with t_evt = min(t_ref, t_vco, t_leak, t_end).  t_vco is +inf when
/// no VCO edge can fire by the horizon min(t_ref, t_leak, t_end).
struct TransientStepPlan {
  double current = 0.0;
  double t_ref = 0.0;
  double t_vco = 0.0;
  double t_leak = 0.0;
  double t_evt = 0.0;
};

/// Fixed-capacity ring of the last few charge-pump pulse widths (lock
/// detection).  Replaces a std::deque whose block churn was the last
/// steady-state allocation in the event loop.
class PulseHistory {
 public:
  static constexpr std::size_t kCapacity = 8;

  void push(double w) {
    buf_[head_] = w;
    head_ = (head_ + 1) % kCapacity;
    if (size_ < kCapacity) ++size_;
  }
  std::size_t size() const { return size_; }
  double max_abs() const;

 private:
  double buf_[kCapacity] = {};
  std::size_t head_ = 0;
  std::size_t size_ = 0;
};

class PllTransientSim {
 public:
  explicit PllTransientSim(const PllParameters& params,
                           ReferenceModulation mod = {},
                           TransientConfig cfg = {});

  const PllParameters& parameters() const { return params_; }
  double period() const { return t_period_; }

  /// Advances the simulation to absolute time t_end; throws
  /// std::invalid_argument unless t_end is finite.
  void run_until(double t_end);
  /// Advances by n reference periods.
  void run_periods(double n);

  /// Augmented integrator state [x_filter; theta] at the current time,
  /// rebuilt from the modal state at the first read after a step (see
  /// PiecewiseExactIntegrator).
  const RVector& state() const { return aug_.state(); }
  double time() const { return t_; }
  /// Current VCO phase excursion theta(t) in seconds.
  double theta() const;
  /// Reference phase excursion at time t.
  double theta_ref(double t) const { return mod_.value(t); }
  /// Loop-filter output (VCO control) at the current time.
  double control_output() const;

  // --- recorded uniform samples ---
  const std::vector<double>& sample_times() const { return samples_.t; }
  const std::vector<double>& theta_samples() const { return samples_.theta; }
  const std::vector<double>& theta_ref_samples() const {
    return samples_.theta_ref;
  }
  void clear_samples();
  void set_recording(bool on) { cfg_.record = on; }

  /// Runs the window [time(), time() + width] and returns theta's
  /// Hann-windowed bin at `omega` over it (see ThetaBin): exact for the
  /// simulated trajectory, with no sampling.  Recording, if on, goes on
  /// as usual.  Throws std::invalid_argument as ThetaBin does, before
  /// simulating.
  cplx measure_theta_bin(double omega, double width);

  // --- initial conditions (lock-acquisition studies) ---
  /// Sets theta(0); only valid before the first run_until call.
  /// Throws std::invalid_argument unless theta0 is finite.
  void set_initial_theta(double theta0);
  /// Pre-charges the loop filter so the VCO starts with the given
  /// relative frequency offset df/f.  Throws std::invalid_argument
  /// unless the offset is finite.
  void set_initial_frequency_offset(double relative_offset);

  // --- charge-pump imperfection (reference-spur studies) ---
  /// Injects a periodic leakage current: `current` amperes during
  /// [n T, n T + window) every reference cycle (see noise/spurs.hpp).
  /// Only valid before the first run_until call.  Throws
  /// std::invalid_argument unless `current` is finite.
  void set_leakage(double current, double window);

  /// Injects held white noise current: at every reference edge a fresh
  /// sample ~ N(0, sigma^2) is drawn and held until the next edge --
  /// the discrete-time stand-in for charge-pump output noise (its
  /// equivalent continuous two-sided PSD is
  /// sigma^2 T |sinc(w T/2)|^2).  Only valid before run_until.  Throws
  /// std::invalid_argument unless sigma is finite and >= 0.
  void set_noise_current(double sigma, unsigned seed);

  // --- diagnostics ---
  std::size_t event_count() const { return events_; }
  /// True when propagator builds use the spectral (modal) path.
  bool spectral_propagators() const { return aug_.spectral_propagators(); }
  /// Largest |charge-pump pulse width| among the last few pulses, in
  /// seconds; ~0 when phase-locked with no modulation.
  double max_recent_pulse_width() const;
  /// True once the last PulseHistory::kCapacity pulse widths are all
  /// below `tol` seconds.  A cycle whose reference and VCO edges fall
  /// within the event loop's coincidence window (1e-9 T) counts as a
  /// zero-width pulse, so a loop that starts in lock reads locked after
  /// kCapacity periods.
  bool is_locked(double tol) const;

 private:
  /// Computes the next event-loop iteration without changing state.
  TransientStepPlan plan_step(double t_end) const;
  /// Records, advances the integrator over the planned segment and
  /// processes the event; false when t_end was reached first.
  bool commit_step(const TransientStepPlan& plan);
  /// Time of the next VCO edge, or +inf when it cannot fire by
  /// `horizon` (the step's next reference/leakage event or t_end).
  double next_vco_edge(double target, double current, double horizon) const;
  void record_range(double t_begin, double t_end, double current);
  void process_edges(double t_evt, double t_ref, double t_vco);

  PllParameters params_;
  ReferenceModulation mod_;
  TransientConfig cfg_;
  double t_period_;
  double icp_;
  double kvco_;

  PiecewiseExactIntegrator aug_;  ///< filter states + theta (last state)
  // plan_step runs once per step and a reference edge usually spans two
  // (a VCO edge falls in between); the sequence keeps its last edge.
  mutable ReferenceEdges ref_edges_;

  TriStatePfd pfd_;
  std::int64_t n_ref_ = 1;
  std::int64_t n_vco_ = 1;
  double t_ = 0.0;
  std::size_t events_ = 0;

  double pulse_start_ = 0.0;
  bool pulse_active_ = false;
  PulseHistory recent_pulse_widths_;

  double leak_current_ = 0.0;
  double leak_window_ = 0.0;
  bool leak_on_ = false;
  std::int64_t n_leak_ = 0;

  double noise_sigma_ = 0.0;
  double noise_current_ = 0.0;
  std::mt19937 noise_rng_;
  std::normal_distribution<double> noise_dist_{0.0, 1.0};

  std::int64_t next_sample_ = 1;
  UniformSamples samples_;
  ThetaBin* bin_ = nullptr;  ///< open measure_theta_bin window, if any
  bool started_ = false;
};

}  // namespace htmpll
