// Transient performance-layer suite: the propagator memo, the
// horizon-bounded edge search (cost and bitwise exactness against a
// reference event loop), the allocation-free steady state, the probe
// core both event-driven simulators share, probe batches, probe-option
// and non-finite input validation and the Monte Carlo batch APIs
// (bit-identical across pool widths and to standalone runs).  Kept in
// its own binary (like test_parallel) so the whole suite stays fast
// enough to run routinely under -DHTMPLL_SANITIZE=thread.
#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <numbers>
#include <random>
#include <string>
#include <unordered_map>
#include <vector>

#include <gtest/gtest.h>

#include "htmpll/obs/diag.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/parallel/thread_pool.hpp"
#include "htmpll/timedomain/lptv_vco_sim.hpp"
#include "htmpll/timedomain/montecarlo.hpp"
#include "htmpll/timedomain/probe.hpp"
#include "htmpll/timedomain/sample_hold_sim.hpp"

#include "allocation_counter.hpp"
#include "obs_scope.hpp"

namespace htmpll {
namespace {

constexpr double kW0 = 2.0 * std::numbers::pi;  // T = 1

/// Test oracle: PllTransientSim's event loop as it stood before the
/// edge search was bounded by the step horizon.  Every VCO edge is
/// solved to convergence (Newton, then the expanding-bracket bisection),
/// every peek -- samples included -- applies a propagator built fresh
/// for its step, and edges, leakage, held noise and recording follow
/// the simulator's rules operation for operation.
class ReferenceEventLoop {
 public:
  ReferenceEventLoop(const PllParameters& p, ReferenceModulation mod,
                     bool use_spectral)
      : mod_(mod),
        t_period_(p.period()),
        icp_(p.icp),
        kvco_(p.kvco),
        integ_(augment_with_phase(to_state_space(p.filter.impedance()),
                                  p.kvco),
               use_spectral),
        x_(integ_.state()),
        theta_index_(x_.size() - 1),
        sample_interval_(t_period_ / 8.0) {}

  void set_initial_frequency_offset(double relative_offset) {
    const StateSpace& ss = integ_.system();
    double cc = 0.0;
    for (std::size_t j = 0; j < ss.order(); ++j) cc += ss.c(0, j) * ss.c(0, j);
    const double target_y = relative_offset / kvco_;
    for (std::size_t j = 0; j < ss.order(); ++j) {
      x_[j] = ss.c(0, j) * target_y / cc;
    }
  }
  void set_initial_theta(double theta0) { x_[theta_index_] = theta0; }
  void set_leakage(double current, double window) {
    leak_current_ = current;
    leak_window_ = window;
  }
  void set_noise_current(double sigma, unsigned seed) {
    noise_sigma_ = sigma;
    noise_rng_.seed(seed);
    noise_current_ = sigma > 0.0 ? sigma * noise_dist_(noise_rng_) : 0.0;
  }

  void run_until(double t_end) {
    const bool leaking = leak_current_ != 0.0 && leak_window_ > 0.0;
    const double eps = 1e-9 * t_period_;
    while (t_ < t_end) {
      const double current = pfd_.pump_current(icp_) +
                             (leak_on_ ? leak_current_ : 0.0) +
                             noise_current_;
      const double t_ref =
          next_reference_edge(static_cast<double>(n_ref_) * t_period_);
      const double t_vco =
          next_vco_edge(static_cast<double>(n_vco_) * t_period_, current);
      const double t_leak =
          leaking ? (static_cast<double>(n_leak_) * t_period_ +
                     (leak_on_ ? leak_window_ : 0.0))
                  : std::numeric_limits<double>::infinity();
      const double t_evt = std::min({t_ref, t_vco, t_leak, t_end});
      record_range(t_, t_evt, current);
      peek(t_evt - t_, current, scratch_);
      x_.swap(scratch_);
      t_ = t_evt;
      bool fired = false;
      if (leaking && t_leak <= t_evt + eps) {
        if (leak_on_) ++n_leak_;
        leak_on_ = !leak_on_;
        fired = true;
      }
      if (t_ref <= t_evt + eps) {
        pfd_.on_reference_edge();
        ++n_ref_;
        ++events_;
        if (noise_sigma_ > 0.0) {
          noise_current_ = noise_sigma_ * noise_dist_(noise_rng_);
        }
        fired = true;
      }
      if (t_vco <= t_evt + eps) {
        pfd_.on_vco_edge();
        ++n_vco_;
        ++events_;
        fired = true;
      }
      max_slip_ = std::max(max_slip_, std::abs(n_vco_ - n_ref_));
      if (!fired) break;
    }
  }

  double theta() const { return x_[theta_index_]; }
  std::size_t event_count() const { return events_; }
  /// Largest |VCO edges - reference edges| seen: > 1 means cycle slips.
  std::int64_t max_slip() const { return max_slip_; }
  /// Edge searches whose Newton iteration failed.
  std::size_t bisection_fallbacks() const { return bisections_; }
  const std::vector<double>& sample_times() const { return sample_t_; }
  const std::vector<double>& theta_samples() const { return sample_theta_; }

 private:
  /// Fresh-build propagation from the current state (peek_into's rule).
  void peek(double h, double u, RVector& out) {
    if (h == 0.0) {
      out = x_;
      return;
    }
    auto it = builds_.find(h);
    if (it == builds_.end()) {
      it = builds_.emplace(h, StepPropagator{}).first;
      integ_.propagator_factory().make_into(h, it->second);
    }
    it->second.advance_into(x_, u, out);
  }

  double next_reference_edge(double target) const {
    double t = target - mod_.value(target);
    for (int it = 0; it < 50; ++it) {
      const double g = t + mod_.value(t) - target;
      const double dt = -g / (1.0 + mod_.slope(t));
      t += dt;
      if (std::abs(dt) <= 1e-13 * t_period_) break;
    }
    return std::max(t, t_);
  }

  double next_vco_edge(double target, double current) {
    const double tol = 1e-13 * t_period_;
    double t = std::max(t_, target - x_[theta_index_]);
    bool converged = false;
    for (int it = 0; it < 60; ++it) {
      peek(std::max(0.0, t - t_), current, scratch_);
      const double g = t + scratch_[theta_index_] - target;
      double gp = 1.0 + kvco_ * integ_.system().output(scratch_, current);
      if (gp < 0.1) gp = 1.0;
      const double dt = -g / gp;
      t += dt;
      if (t < t_) t = t_;
      if (std::abs(dt) <= tol) {
        converged = true;
        break;
      }
    }
    if (!converged) {
      ++bisections_;
      double lo = t_;
      peek(0.0, current, scratch_);
      if (lo + scratch_[theta_index_] - target >= 0.0) return t_;
      double hi = t_ + t_period_;
      for (int grow = 0; grow < 64; ++grow) {
        peek(hi - t_, current, scratch_);
        if (hi + scratch_[theta_index_] - target >= 0.0) break;
        hi = t_ + 2.0 * (hi - t_);
      }
      for (int it = 0; it < 200; ++it) {
        const double mid = 0.5 * (lo + hi);
        peek(mid - t_, current, scratch_);
        if (mid + scratch_[theta_index_] - target < 0.0) {
          lo = mid;
        } else {
          hi = mid;
        }
        if (hi - lo <= tol) break;
      }
      t = 0.5 * (lo + hi);
    }
    return std::max(t, t_);
  }

  void record_range(double t_begin, double t_end, double current) {
    while (true) {
      const double ts = static_cast<double>(next_sample_) * sample_interval_;
      if (ts > t_end) break;
      if (ts >= t_begin) {
        peek(ts - t_begin, current, scratch_);
        sample_t_.push_back(ts);
        sample_theta_.push_back(scratch_[theta_index_]);
      }
      ++next_sample_;
    }
  }

  ReferenceModulation mod_;
  double t_period_, icp_, kvco_;
  PiecewiseExactIntegrator integ_;  ///< only its system and factory
  RVector x_, scratch_;
  std::size_t theta_index_;
  double sample_interval_;
  std::unordered_map<double, StepPropagator> builds_;
  TriStatePfd pfd_;
  double t_ = 0.0;
  std::int64_t n_ref_ = 1, n_vco_ = 1, n_leak_ = 0, next_sample_ = 1;
  std::int64_t max_slip_ = 0;
  std::size_t events_ = 0, bisections_ = 0;
  double leak_current_ = 0.0, leak_window_ = 0.0;
  bool leak_on_ = false;
  double noise_sigma_ = 0.0, noise_current_ = 0.0;
  std::mt19937 noise_rng_;
  std::normal_distribution<double> noise_dist_{0.0, 1.0};
  std::vector<double> sample_t_, sample_theta_;
};

TEST(PropagatorCache, CountsHitsAndMisses) {
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  PiecewiseExactIntegrator integ(
      augment_with_phase(to_state_space(p.filter.impedance()), p.kvco));
  {
    const PropagatorMemoCounts st;
    (void)integ.peek(0.125, 1e-3);
    (void)integ.peek(0.125, 2e-3);  // same h, different input: cache hit
    (void)integ.peek(0.25, 1e-3);
    EXPECT_EQ(st.lookups(), 3u);
    EXPECT_EQ(st.misses(), 2u);
    EXPECT_EQ(st.hits(), 1u);
  }

  // The memo holds one step length: h = a a b a b b hits only on the
  // immediate repeats.
  PiecewiseExactIntegrator memo(
      augment_with_phase(to_state_space(p.filter.impedance()), p.kvco));
  const PropagatorMemoCounts st;
  for (double h : {0.125, 0.125, 0.25, 0.125, 0.25, 0.25}) {
    (void)memo.peek(h, 1e-3);
  }
  EXPECT_EQ(st.lookups(), 6u);
  EXPECT_EQ(st.misses(), 4u);
}

// After a warm-up leg, a recording-off run with held noise performs no
// heap allocation at all: the propagator memo is rebuilt in place, the
// peek and advance scratch keep their size and the pulse history is a
// fixed ring.
TEST(EventLoop, SteadyStateRunsAllocationFree) {
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  TransientConfig cfg;
  cfg.record = false;
  PllTransientSim sim(p, {}, cfg);
  sim.set_noise_current(1e-4 * p.icp,
                        static_cast<unsigned>(mc_stream_seed(11, 0)));
  sim.run_periods(30.0);  // warm-up: memo and scratch sized here
  const std::uint64_t before = heap_allocation_count();
  sim.run_periods(30.0);
  const std::uint64_t after = heap_allocation_count();
  EXPECT_EQ(after - before, 0u);
  EXPECT_GT(sim.event_count(), 100u);
}

// The leakage events of the spur studies add step lengths to the event
// loop but no allocation.
TEST(EventLoop, LeakageRunsAllocationFree) {
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  TransientConfig cfg;
  cfg.record = false;
  PllTransientSim sim(p, {}, cfg);
  sim.set_leakage(0.02 * p.icp, 0.15 * p.period());
  sim.run_periods(30.0);  // warm-up
  const std::size_t events = sim.event_count();
  const std::uint64_t before = heap_allocation_count();
  sim.run_periods(30.0);
  const std::uint64_t after = heap_allocation_count();
  EXPECT_EQ(after - before, 0u);
  EXPECT_GE(sim.event_count() - events, 60u);
}

TEST(EdgeSearch, LookupsPerEventStayFlatAcrossLoopBandwidth) {
  // Regression for the cost cliff above w_UG/w0 = 0.1: there the
  // searches for VCO edges that cannot fire before the next reference
  // edge drove Newton into divergence and the bisection bracket never
  // closed (~60 propagator lookups per PFD event at 0.15 vs ~8 at 0.05).
  // Bounding the search by the step horizon keeps ~3 at every ratio.
  for (double ratio : {0.05, 0.1, 0.101, 0.15, 0.27}) {
    const PllParameters p = make_typical_loop(ratio * kW0, kW0);
    ReferenceModulation mod;
    mod.amplitude = 1e-3;
    mod.omega = 0.17 * kW0;
    PllTransientSim sim(p, mod);
    const PropagatorMemoCounts st;
    sim.run_periods(80.0);
    ASSERT_GT(sim.event_count(), 100u) << "ratio " << ratio;
    EXPECT_LE(st.lookups(), 4 * sim.event_count()) << "ratio " << ratio;
  }
}

TEST(EdgeSearch, BisectionFallbackIsObservable) {
  // The Fig. 6 probe at w_UG/w0 = 0.01, 0.3 w_UG runs past t = 8192 T,
  // where doubles near t are ~1.8e-12 T apart: the 1e-13 T Newton
  // tolerance is unreachable for an edge whose residual never rounds to
  // zero, and the bisection fallback takes over.  The diag event reports
  // each such search with the stalled Newton step (in periods) as its
  // payload.
  ScopedObs on(true);
  const PllParameters p = make_typical_loop(0.01 * kW0, kW0);
  ReferenceModulation mod;
  mod.amplitude = ProbeOptions{}.amplitude_fraction * p.period();
  mod.omega = 0.3 * 0.01 * kW0;
  TransientConfig cfg;
  cfg.record = false;
  PllTransientSim sim(p, mod, cfg);
  obs::reset_counters();
  const double tm = 2.0 * std::numbers::pi / mod.omega;
  const double settle = std::max(400.0 * p.period(), 4.0 * tm);
  sim.run_until(settle);
  sim.run_until(settle + 24.0 * tm);  // the probe's schedule
  const obs::DiagSnapshot s = obs::diag_snapshot();
  const std::uint64_t fallbacks = s.tally[static_cast<std::size_t>(
      obs::DiagReason::kVcoEdgeBisectionFallback)];
  EXPECT_GE(fallbacks, 1u);
  std::uint64_t seen = 0;
  for (const obs::DiagEvent& e : s.events) {
    if (e.reason != obs::DiagReason::kVcoEdgeBisectionFallback) continue;
    ++seen;
    EXPECT_GT(e.payload, 1e-13);     // above the Newton tolerance...
    EXPECT_LT(e.payload, 0x1p-39);   // ...below one double spacing at 8192
  }
  EXPECT_EQ(seen, fallbacks);
}

TEST(EdgeSearch, MatchesUnboundedReferenceLoopBitwise) {
  // Differential check of the horizon-bounded edge search, the theta-row
  // sampler and the in-place memo rebuilds against the reference
  // loop, on random loops across the whole stable range with
  // modulation, held noise, leakage and acquisition offsets (frequency
  // up to 3e-2, phase up to ~T).  Every fourth run starts a slow loop
  // almost a cycle behind and below frequency, so it slips a cycle.
  // Quiet runs (no modulation, noise or leakage) on fast loops settle
  // until reference and VCO edges coincide within the 1e-9 T window,
  // which is what the horizon margin must respect.  run_until stops at
  // off-grid times so t_end bounds the horizon too.
  std::mt19937 rng(20261016u);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  int slipping_runs = 0;
  std::size_t bisections = 0;
  for (int trial = 0; trial < 24; ++trial) {
    const bool slip_prone = trial % 4 == 0;
    const bool quiet = trial % 6 == 3;
    const double ratio = slip_prone ? 0.005 + 0.005 * unit(rng)
                         : quiet    ? 0.1 + 0.17 * unit(rng)
                                    : 0.005 + 0.265 * unit(rng);
    const double gamma = 2.0 + 4.0 * unit(rng);
    const PllParameters p = make_typical_loop(ratio * kW0, kW0, gamma);
    ReferenceModulation mod;
    if (!quiet && trial % 3 != 0) {
      mod.amplitude = 2e-3 * unit(rng) * p.period();
      mod.omega = (0.05 + 0.4 * unit(rng)) * kW0;
      mod.phase = 6.0 * unit(rng);
    }
    const double offset = slip_prone ? -3e-2 * (1.0 - 0.2 * unit(rng))
                                     : 3e-2 * (2.0 * unit(rng) - 1.0);
    const double theta0 = (slip_prone ? -0.99 : 1.6 * unit(rng) - 0.8) *
                          p.period();
    const bool noisy = !quiet && trial % 2 == 1;
    const bool leaky = !quiet && trial % 4 >= 2;
    const bool spectral = trial % 8 != 7;
    const double sigma = 1e-3 * unit(rng) * p.icp;
    const unsigned seed = static_cast<unsigned>(rng());
    const double leak = 0.02 * (2.0 * unit(rng) - 1.0) * p.icp;
    const double window = (0.05 + 0.4 * unit(rng)) * p.period();

    TransientConfig cfg;
    cfg.use_spectral_propagators = spectral;
    PllTransientSim sim(p, mod, cfg);
    ReferenceEventLoop ref(p, mod, spectral);
    sim.set_initial_frequency_offset(offset);  // before theta0: it
    ref.set_initial_frequency_offset(offset);  // rewrites the whole state
    sim.set_initial_theta(theta0);
    ref.set_initial_theta(theta0);
    if (noisy) {
      sim.set_noise_current(sigma, seed);
      ref.set_noise_current(sigma, seed);
    }
    if (leaky) {
      sim.set_leakage(leak, window);
      ref.set_leakage(leak, window);
    }
    for (double t_end : {37.3, 120.0 + unit(rng)}) {
      sim.run_until(t_end * p.period());
      ref.run_until(t_end * p.period());
    }
    if (ref.max_slip() > 1) ++slipping_runs;
    bisections += ref.bisection_fallbacks();

    SCOPED_TRACE(testing::Message() << "trial " << trial << " ratio " << ratio
                                    << " gamma " << gamma << " offset "
                                    << offset << " theta0 " << theta0);
    EXPECT_EQ(sim.event_count(), ref.event_count());
    const double theta_sim = sim.theta();
    const double theta_ref = ref.theta();
    EXPECT_EQ(std::memcmp(&theta_sim, &theta_ref, sizeof(double)), 0);
    ASSERT_EQ(sim.theta_samples().size(), ref.theta_samples().size());
    for (std::size_t i = 0; i < ref.theta_samples().size(); ++i) {
      ASSERT_EQ(sim.sample_times()[i], ref.sample_times()[i]) << "sample " << i;
      ASSERT_EQ(std::memcmp(&sim.theta_samples()[i], &ref.theta_samples()[i],
                            sizeof(double)),
                0)
          << "sample " << i;
    }
  }
  // Coverage: cycle slips, and the diverging searches the horizon skips.
  EXPECT_GE(slipping_runs, 3);
  EXPECT_GT(bisections, 0u);
}

TEST(SpectralEngine, SimulationAgreesWithPadeWithinTolerance) {
  // Full transient runs with the two propagator backends: the recorded
  // theta trajectories must agree to the 1e-10 relative level of the
  // bench contract.  (T = 1 normalization keeps the Van Loan matrix
  // well scaled, so the Pade reference itself is trustworthy here.)
  const PllParameters p = make_typical_loop(0.15 * kW0, kW0);
  ReferenceModulation mod;
  mod.amplitude = 2e-3;
  mod.omega = 0.21 * kW0;
  auto run = [&](bool use_spectral) {
    TransientConfig cfg;
    cfg.use_spectral_propagators = use_spectral;
    PllTransientSim sim(p, mod, cfg);
    sim.run_periods(60.0);
    return sim;
  };
  const PllTransientSim s = run(true);
  const PllTransientSim q = run(false);
  EXPECT_TRUE(s.spectral_propagators());
  EXPECT_FALSE(q.spectral_propagators());
  ASSERT_EQ(s.theta_samples().size(), q.theta_samples().size());
  double scale = 0.0;
  for (double th : q.theta_samples()) scale = std::max(scale, std::abs(th));
  ASSERT_GT(scale, 0.0);
  for (std::size_t i = 0; i < s.theta_samples().size(); ++i) {
    EXPECT_LT(std::abs(s.theta_samples()[i] - q.theta_samples()[i]) / scale,
              1e-10)
        << "sample " << i;
  }
}

TEST(SpectralEngine, ConfigOffRunsTheVanLoanOracle) {
  // TransientConfig::use_spectral_propagators = false runs every step
  // through make_propagator: the simulator then equals the reference
  // loop on the Van Loan oracle bit for bit.
  const PllParameters p = make_typical_loop(0.12 * kW0, kW0);
  ReferenceModulation mod;
  mod.amplitude = 1e-3;
  mod.omega = 0.3 * kW0;
  TransientConfig cfg;
  cfg.use_spectral_propagators = false;
  PllTransientSim sim(p, mod, cfg);
  EXPECT_FALSE(sim.spectral_propagators());
  ReferenceEventLoop ref(p, mod, /*use_spectral=*/false);
  sim.run_periods(30.0);
  ref.run_until(30.0 * p.period());
  EXPECT_EQ(sim.event_count(), ref.event_count());
  const double theta_sim = sim.theta();
  const double theta_ref = ref.theta();
  EXPECT_EQ(std::memcmp(&theta_sim, &theta_ref, sizeof(double)), 0);
  ASSERT_EQ(sim.theta_samples().size(), ref.theta_samples().size());
  for (std::size_t i = 0; i < ref.theta_samples().size(); ++i) {
    ASSERT_EQ(std::memcmp(&sim.theta_samples()[i], &ref.theta_samples()[i],
                          sizeof(double)),
              0)
        << "sample " << i;
  }
}

TEST(SpectralEngine, CountsSpectralBuilds) {
  const bool was = obs::enabled();
  obs::enable();
  obs::Counter& spectral_builds =
      obs::counter("timedomain.spectral_propagators");
  obs::Counter& fallbacks = obs::counter("timedomain.pade_fallbacks");
  obs::Counter& expm_evals = obs::counter("linalg.expm_evals");
  const std::uint64_t s0 = spectral_builds.value();
  const std::uint64_t f0 = fallbacks.value();
  const std::uint64_t e0 = expm_evals.value();
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  PllTransientSim sim(p);
  sim.set_recording(false);
  sim.run_periods(10.0);
  EXPECT_GT(spectral_builds.value(), s0);
  EXPECT_EQ(fallbacks.value(), f0);  // typical loop never falls back
  EXPECT_EQ(expm_evals.value(), e0);

  // A probe batch, the shape of a Fig. 6 sweep, builds every step
  // propagator spectrally too: no Pade fallback and no expm at all.
  ProbeOptions opts;
  opts.settle_periods = 150.0;
  opts.measure_periods = 12;
  const std::vector<double> omegas{0.12 * kW0, 0.3 * kW0};
  const auto m = measure_baseband_transfer_many(
      make_typical_loop(0.2 * kW0, kW0), omegas, opts);
  EXPECT_EQ(m.size(), omegas.size());
  EXPECT_EQ(fallbacks.value(), f0);
  EXPECT_EQ(expm_evals.value(), e0);
  if (!was) obs::disable();
}

TEST(ProbeOptionsValidation, RejectsOutOfRangeFields) {
  const PllParameters p = make_typical_loop(0.2 * kW0, kW0);
  const std::vector<double> omegas{0.2 * kW0};

  ProbeOptions bad = {};
  bad.amplitude_fraction = 0.0;
  EXPECT_THROW(validate_probe_options(bad), std::invalid_argument);
  EXPECT_THROW(measure_baseband_transfer(p, 0.2 * kW0, bad),
               std::invalid_argument);
  EXPECT_THROW(measure_baseband_transfer_many(p, omegas, bad),
               std::invalid_argument);

  bad = {};
  bad.settle_periods = -1.0;
  EXPECT_THROW(measure_baseband_transfer(p, 0.2 * kW0, bad),
               std::invalid_argument);

  bad = {};
  bad.measure_periods = 0;
  EXPECT_THROW(measure_band_transfer(p, 1, 0.2 * kW0, bad),
               std::invalid_argument);


  EXPECT_NO_THROW(validate_probe_options(ProbeOptions{}));
}

/// Expects `f` to throw std::invalid_argument whose message contains
/// `what` (the name of the rejected input).
template <class F>
void expect_rejected(F&& f, const std::string& what) {
  try {
    f();
    ADD_FAILURE() << "accepted; expected a rejection naming " << what;
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(what), std::string::npos)
        << e.what();
  }
}

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Flat ISF: the LPTV simulator's loop equals the time-invariant one.
IsfWaveform flat_isf(const PllParameters& p) {
  return IsfWaveform(HarmonicCoefficients(cplx{1.0}), p.kvco, p.w0);
}

TEST(NonFiniteInput, ModulationOmegaRejected) {
  // A NaN or infinite omega used to make run_periods(5) never return:
  // NaN event times never pass record_range's ts > t_end break (the
  // LPTV simulator's edge loop likewise).
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  for (double omega : {kNaN, kInf, -kInf}) {
    ReferenceModulation mod;
    mod.amplitude = 1e-3;
    mod.omega = omega;
    expect_rejected([&] { PllTransientSim sim(p, mod); }, "omega");
    expect_rejected([&] { SampleHoldPllSim sim(p, mod); }, "omega");
    expect_rejected([&] { LptvPllTransientSim sim(p, flat_isf(p), mod); },
                    "omega");
  }
}

TEST(NonFiniteInput, ModulationPhaseRejected) {
  // An infinite phase made the LPTV simulator's run_periods(5) hang.
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  for (double phase : {kNaN, kInf}) {
    ReferenceModulation mod;
    mod.amplitude = 1e-3;
    mod.omega = 0.05 * kW0;
    mod.phase = phase;
    expect_rejected([&] { PllTransientSim sim(p, mod); }, "phase");
    expect_rejected([&] { SampleHoldPllSim sim(p, mod); }, "phase");
    expect_rejected([&] { LptvPllTransientSim sim(p, flat_isf(p), mod); },
                    "phase");
  }
}

TEST(NonFiniteInput, LoopParametersRejected) {
  // A NaN Icp built simulators that ran on NaN pump currents, and an
  // infinite R passed the filter's sign check.  Each simulator now
  // rejects the loop before building any state, naming the field.
  const PllParameters good = make_typical_loop(0.1 * kW0, kW0);
  const IsfWaveform isf = flat_isf(good);
  const auto expect_all_reject = [&](const PllParameters& p,
                                     const std::string& what) {
    expect_rejected([&] { PllTransientSim sim(p); }, what);
    expect_rejected([&] { SampleHoldPllSim sim(p); }, what);
    expect_rejected([&] { LptvPllTransientSim sim(p, isf); }, what);
  };
  PllParameters p = good;
  p.icp = kNaN;
  expect_all_reject(p, "icp must be finite");
  p = good;
  p.kvco = kInf;
  expect_all_reject(p, "kvco must be finite");
  p = good;
  p.filter.r = kInf;
  expect_all_reject(p, "filter.r must be finite");
  p = good;
  p.w0 = kInf;
  expect_all_reject(p, "w0 must be positive and finite");
}

TEST(NonFiniteInput, LoopOutsideTheCoefficientRangeRejected) {
  // Every parameter of the typical loop at w0 = 2 pi 1e125 is finite,
  // but R C1 C2 falls below Polynomial's trim: the simulators used to
  // integrate a filter without its pole at -wp.  Each now rejects it.
  const double w0 = 2.0 * std::numbers::pi * 1e125;
  const PllParameters p = make_typical_loop(0.1 * w0, w0);
  const std::string what = "impedance lost a pole";
  expect_rejected([&] { PllTransientSim sim(p); }, what);
  expect_rejected([&] { SampleHoldPllSim sim(p); }, what);
  expect_rejected([&] { LptvPllTransientSim sim(p, flat_isf(p)); }, what);
}

TEST(NonFiniteInput, RunUntilRejectsNonFiniteEnd) {
  // run_until(+inf) never returned; run_until(NaN) returned at t = 0
  // without a word.
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  for (double t_end : {kInf, kNaN}) {
    PllTransientSim sim(p);
    expect_rejected([&] { sim.run_until(t_end); }, "t_end");
    expect_rejected([&] { sim.run_periods(t_end); }, "t_end");
    EXPECT_EQ(sim.time(), 0.0);
    SampleHoldPllSim sh(p);
    expect_rejected([&] { sh.run_until(t_end); }, "t_end");
    EXPECT_EQ(sh.time(), 0.0);
    LptvPllTransientSim lptv(p, flat_isf(p));
    expect_rejected([&] { lptv.run_until(t_end); }, "t_end");
    expect_rejected([&] { lptv.run_periods(t_end); }, "t_end");
    EXPECT_EQ(lptv.time(), 0.0);
  }
}

TEST(NonFiniteInput, SettlePeriodsRejected) {
  // settle_periods = inf made every probe run forever.
  const PllParameters p = make_typical_loop(0.2 * kW0, kW0);
  ProbeOptions bad;
  bad.settle_periods = kInf;
  expect_rejected([&] { validate_probe_options(bad); }, "settle period");
  expect_rejected([&] { measure_baseband_transfer(p, 0.2 * kW0, bad); },
                  "settle period");
}

TEST(NonFiniteInput, ModulationFrequencyRejected) {
  // measure_baseband_transfer(p, +inf) used to fail deep inside the
  // integrator with "cannot propagate backwards".
  const PllParameters p = make_typical_loop(0.2 * kW0, kW0);
  expect_rejected([&] { measure_baseband_transfer(p, kInf); },
                  "modulation frequency");
  expect_rejected([&] { measure_band_transfer(p, 1, kInf); },
                  "modulation frequency");
  expect_rejected(
      [&] { measure_baseband_transfer_sample_hold(p, kInf); },
      "modulation frequency");
  // The LPTV probe never returned.
  expect_rejected(
      [&] { measure_baseband_transfer_lptv(p, flat_isf(p), kInf); },
      "modulation frequency");
}

TEST(NonFiniteInput, SingleBinFrequencyRejected) {
  // single_bin_ratio with a NaN frequency returned NaN.
  std::vector<double> t(16), y(16, 1.0), x(16, 1.0);
  for (std::size_t k = 0; k < t.size(); ++k) t[k] = 0.1 * k;
  expect_rejected([&] { single_bin_ratio(t, y, kNaN, x, 1.0); },
                  "bin frequency");
  expect_rejected([&] { single_bin_ratio(t, y, 1.0, x, kInf); },
                  "bin frequency");
  expect_rejected([&] { single_bin_transfer(t, y, x, kNaN); },
                  "bin frequency");
}

TEST(NonFiniteInput, SampleIntervalRejected) {
  // A NaN sample_interval used to surface as a bare vector::reserve (the
  // LPTV simulator recorded no samples), and a negative one silently
  // meant T/8 like 0.
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  for (double interval : {kNaN, kInf, -0.5}) {
    TransientConfig cfg;
    cfg.sample_interval = interval;
    expect_rejected([&] { PllTransientSim sim(p, {}, cfg); },
                    "sample_interval");
    expect_rejected([&] { SampleHoldPllSim sim(p, {}, cfg); },
                    "sample_interval");
    LptvTransientConfig lcfg;
    lcfg.sample_interval = interval;
    expect_rejected(
        [&] { LptvPllTransientSim sim(p, flat_isf(p), {}, lcfg); },
        "sample_interval");
  }
}

TEST(NonFiniteInput, InitialThetaRejected) {
  // set_initial_theta(NaN) used to make run_periods(20) crawl: 2 s of
  // wall time covered 2.3e-9 T.
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  for (double theta0 : {kNaN, kInf, -kInf}) {
    PllTransientSim sim(p);
    expect_rejected([&] { sim.set_initial_theta(theta0); },
                    "initial theta");
    EXPECT_EQ(sim.theta(), 0.0);
  }
}

TEST(NonFiniteInput, InitialFrequencyOffsetRejected) {
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  for (double offset : {kNaN, kInf, -kInf}) {
    PllTransientSim sim(p);
    expect_rejected([&] { sim.set_initial_frequency_offset(offset); },
                    "frequency offset");
    EXPECT_EQ(sim.control_output(), 0.0);
  }
}

TEST(NonFiniteInput, LeakageCurrentRejected) {
  // set_leakage(NaN, 0.1) followed by a run used to segfault.
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  for (double current : {kNaN, kInf, -kInf}) {
    PllTransientSim sim(p);
    expect_rejected([&] { sim.set_leakage(current, 0.1 * p.period()); },
                    "leakage current");
  }
}

TEST(NonFiniteInput, NoiseSigmaRejected) {
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  for (double sigma : {kNaN, kInf, -1e-6}) {
    PllTransientSim sim(p);
    expect_rejected([&] { sim.set_noise_current(sigma, 1u); },
                    "noise sigma");
  }
}

// Each setter checks its input before it touches any state: a simulator
// that saw every rejected call runs bit-identically to an untouched one.
TEST(NonFiniteInput, RejectedSettersLeaveRunUnchanged) {
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  PllTransientSim ref(p);
  PllTransientSim sim(p);
  EXPECT_THROW(sim.set_initial_theta(kNaN), std::invalid_argument);
  EXPECT_THROW(sim.set_initial_frequency_offset(kInf),
               std::invalid_argument);
  EXPECT_THROW(sim.set_leakage(kNaN, 0.1 * p.period()),
               std::invalid_argument);
  EXPECT_THROW(sim.set_noise_current(kInf, 7u), std::invalid_argument);
  for (PllTransientSim* s : {&ref, &sim}) {
    s->set_initial_theta(1e-3 * p.period());
    s->run_periods(20.0);
  }
  EXPECT_EQ(sim.event_count(), ref.event_count());
  EXPECT_EQ(sim.theta(), ref.theta());
  ASSERT_EQ(sim.theta_samples().size(), ref.theta_samples().size());
  for (std::size_t i = 0; i < ref.theta_samples().size(); ++i) {
    ASSERT_EQ(sim.theta_samples()[i], ref.theta_samples()[i]) << i;
  }
}

/// Bitwise equality of two probe results: value, events and simulated
/// time.
void expect_same_measurement(const TransferMeasurement& a,
                             const TransferMeasurement& b,
                             const std::string& what) {
  EXPECT_EQ(std::memcmp(&a.value, &b.value, sizeof(cplx)), 0) << what;
  EXPECT_EQ(a.events, b.events) << what;
  EXPECT_EQ(std::memcmp(&a.simulated_time, &b.simulated_time,
                        sizeof(double)),
            0)
      << what;
}

// The pooled probe batches, in probe_verify's shape (a baseband batch
// and one sideband probe per band -2..2), give the same bits at every
// pool width, and each entry equals its point-wise probe.
TEST(ProbeBatch, DeterministicAcrossPoolWidths) {
  const PllParameters p = make_typical_loop(0.2 * kW0, kW0);
  ProbeOptions opts;
  opts.settle_periods = 40.0;
  opts.measure_periods = 4;
  const std::vector<double> omegas{0.15 * kW0, 0.25 * kW0, 0.4 * kW0};
  std::vector<BandProbePoint> points;
  for (int n = -2; n <= 2; ++n) {
    points.push_back({n, (0.08 + 0.025 * (n + 2)) * kW0});
  }

  std::vector<TransferMeasurement> base_ref, band_ref;
  for (double w : omegas) {
    base_ref.push_back(measure_baseband_transfer(p, w, opts));
  }
  for (const BandProbePoint& q : points) {
    band_ref.push_back(measure_band_transfer(p, q.band, q.omega_m, opts));
  }

  ThreadPool one(1);
  ThreadPool four(4);
  for (ThreadPool* pool : {&one, &four}) {
    const std::string width =
        "pool width " + std::to_string(pool->threads());
    const auto base = measure_baseband_transfer_many(p, omegas, opts, *pool);
    ASSERT_EQ(base.size(), omegas.size());
    for (std::size_t i = 0; i < omegas.size(); ++i) {
      expect_same_measurement(base[i], base_ref[i],
                              width + ", baseband point " +
                                  std::to_string(i));
    }
    const auto bands = measure_band_transfer_many(p, points, opts, *pool);
    ASSERT_EQ(bands.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
      expect_same_measurement(
          bands[i], band_ref[i],
          width + ", band " + std::to_string(points[i].band));
    }
  }
}

// The sample-and-hold probe runs on the same probe core as the
// baseband and band probes, so it rejects the same options by name.
TEST(ProbeOptionsValidation, SampleHoldProbeRejectsOutOfRangeFields) {
  const PllParameters p = make_typical_loop(0.15 * kW0, kW0);
  const double wm = 0.1 * kW0;
  ProbeOptions bad;
  bad.amplitude_fraction = 0.0;
  expect_rejected([&] { measure_baseband_transfer_sample_hold(p, wm, bad); },
                  "amplitude");
  bad = {};
  bad.settle_periods = -1.0;
  expect_rejected([&] { measure_baseband_transfer_sample_hold(p, wm, bad); },
                  "settle period");
  bad = {};
  bad.measure_periods = 0;
  expect_rejected([&] { measure_baseband_transfer_sample_hold(p, wm, bad); },
                  "measurement period");
  for (double w : {0.0, -wm, kNaN}) {
    expect_rejected([&] { measure_baseband_transfer_sample_hold(p, w); },
                    "modulation frequency");
  }
}

// Both simulators' probes settle for max(settle_periods T, 4 T_m) and
// then measure over measure_periods T_m, so a probe's simulated time is
// the sum of the two.
TEST(ProbeCore, SettleSpansAtLeastFourModulationPeriods) {
  const PllParameters p = make_typical_loop(0.15 * kW0, kW0);
  ProbeOptions opts;
  opts.settle_periods = 30.0;
  opts.measure_periods = 3;
  // T_m = 20 T: four modulation periods (80 T) outlast the 30 T settle.
  // T_m = 10/3 T: the 30 T settle outlasts four modulation periods.
  for (double wm : {0.05 * kW0, 0.3 * kW0}) {
    const double tm = 2.0 * std::numbers::pi / wm;
    const double expected =
        std::max(opts.settle_periods * p.period(), 4.0 * tm) +
        opts.measure_periods * tm;
    const TransferMeasurement pulse = measure_baseband_transfer(p, wm, opts);
    const TransferMeasurement held =
        measure_baseband_transfer_sample_hold(p, wm, opts);
    EXPECT_NEAR(pulse.simulated_time, expected, 1e-12 * expected)
        << "w_m/w0 = " << wm / kW0;
    EXPECT_NEAR(held.simulated_time, expected, 1e-12 * expected)
        << "w_m/w0 = " << wm / kW0;
    EXPECT_GT(pulse.events, 0u);
    EXPECT_GT(held.events, 0u);
  }
}

/// The probe written out on one simulator: settle from rest with
/// recording off, take theta's exact bin over the window and divide by
/// the modulation's own bin over the same window.
template <class Sim>
TransferMeasurement probe_by_hand(const PllParameters& p, double omega_m,
                                  const ProbeOptions& opts) {
  ReferenceModulation mod;
  mod.amplitude = opts.amplitude_fraction * p.period();
  mod.omega = omega_m;
  TransientConfig cfg;
  cfg.record = false;
  Sim sim(p, mod, cfg);
  const double tm = 2.0 * std::numbers::pi / omega_m;
  sim.run_until(std::max(opts.settle_periods * p.period(), 4.0 * tm));
  const double t0 = sim.time();
  const double width = static_cast<double>(opts.measure_periods) * tm;
  const cplx bin = sim.measure_theta_bin(omega_m, width);
  TransferMeasurement out;
  out.value = bin / mod.hann_bin(omega_m, t0, width);
  out.simulated_time = sim.time();
  out.events = sim.event_count();
  return out;
}

// One probe core serves both event-driven simulators: each probe gives
// the bits of its simulator driven by hand through the same steps.
TEST(ProbeCore, MatchesAHandDrivenSimulatorBitwise) {
  const PllParameters p = make_typical_loop(0.15 * kW0, kW0);
  ProbeOptions opts;
  opts.settle_periods = 30.0;
  opts.measure_periods = 3;
  for (double wm : {0.05 * kW0, 0.3 * kW0}) {
    const std::string at = "w_m/w0 = " + std::to_string(wm / kW0);
    expect_same_measurement(measure_baseband_transfer(p, wm, opts),
                            probe_by_hand<PllTransientSim>(p, wm, opts),
                            "pulse probe, " + at);
    expect_same_measurement(measure_baseband_transfer_sample_hold(p, wm, opts),
                            probe_by_hand<SampleHoldPllSim>(p, wm, opts),
                            "sample-hold probe, " + at);
  }
}

TEST(MonteCarlo, StreamSeedsAreDeterministicAndDistinct) {
  EXPECT_EQ(mc_stream_seed(7, 0), mc_stream_seed(7, 0));
  EXPECT_NE(mc_stream_seed(7, 0), mc_stream_seed(7, 1));
  EXPECT_NE(mc_stream_seed(7, 0), mc_stream_seed(8, 0));
  // base+index collisions must not alias streams: (7, 1) vs (8, 0).
  EXPECT_NE(mc_stream_seed(7, 1), mc_stream_seed(8, 0));
}

TEST(MonteCarlo, MapIsBitIdenticalAcrossPoolWidths) {
  ThreadPool one(1);
  ThreadPool four(4);
  auto fn = [](std::size_t i, std::uint64_t seed) {
    return static_cast<double>(seed % 1000003) +
           static_cast<double>(i) * 1e-3;
  };
  const auto a = monte_carlo_map<double>(64, 99, fn, one);
  const auto b = monte_carlo_map<double>(64, 99, fn, four);
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(MonteCarlo, NoiseEnsembleReproducibleAndNonDegenerate) {
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  NoiseEnsembleOptions opts;
  opts.settle_periods = 20.0;
  opts.measure_periods = 60.0;
  const double sigma = 1e-4 * p.icp;
  const auto a = run_noise_ensemble(p, sigma, 1234, 3, opts);
  const auto b = run_noise_ensemble(p, sigma, 1234, 3, opts);
  ASSERT_EQ(a.size(), 3u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].theta_rms, b[i].theta_rms);  // bit-reproducible
    EXPECT_GT(a[i].theta_rms, 0.0);
    EXPECT_GE(a[i].theta_peak, a[i].theta_rms);
    EXPECT_GT(a[i].events, 100u);
  }
  // Independent streams: distinct runs see distinct noise paths.
  EXPECT_NE(a[0].theta_rms, a[1].theta_rms);
}

// Every member is one PllTransientSim seeded from (base_seed, index):
// the ensemble is bit-identical at pool widths 1 and 4 for any size, and
// its last member matches a standalone run of that seed.
TEST(MonteCarlo, NoiseEnsembleMatchesStandaloneRunsAcrossPoolWidths) {
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  const double sigma = 1e-4 * p.icp;
  NoiseEnsembleOptions opts;
  opts.settle_periods = 20.0;
  opts.measure_periods = 60.0;
  ThreadPool one(1), four(4);
  for (std::size_t n : {1u, 3u, 8u, 64u}) {
    const auto ref = run_noise_ensemble(p, sigma, 42, n, opts, one);
    const auto got = run_noise_ensemble(p, sigma, 42, n, opts, four);
    ASSERT_EQ(ref.size(), n);
    ASSERT_EQ(got.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(got[i].theta_mean, ref[i].theta_mean);
      EXPECT_EQ(got[i].theta_rms, ref[i].theta_rms);
      EXPECT_EQ(got[i].theta_peak, ref[i].theta_peak);
      EXPECT_EQ(got[i].events, ref[i].events);
    }

    const std::size_t i = n - 1;
    TransientConfig cfg;
    cfg.record = false;
    PllTransientSim sim(p, {}, cfg);
    sim.set_noise_current(sigma, static_cast<unsigned>(mc_stream_seed(42, i)));
    sim.run_periods(opts.settle_periods);
    sim.set_recording(true);
    sim.clear_samples();
    sim.run_periods(opts.measure_periods);
    const std::vector<double>& th = sim.theta_samples();
    ASSERT_FALSE(th.empty());
    double mean = 0.0;
    for (double v : th) mean += v;
    mean /= static_cast<double>(th.size());
    double ss = 0.0, peak = 0.0;
    for (double v : th) {
      const double d = v - mean;
      ss += d * d;
      peak = std::max(peak, std::abs(d));
    }
    EXPECT_EQ(ref[i].theta_mean, mean);
    EXPECT_EQ(ref[i].theta_rms,
              std::sqrt(ss / static_cast<double>(th.size())));
    EXPECT_EQ(ref[i].theta_peak, peak);
    EXPECT_EQ(ref[i].events, sim.event_count());
  }
}

// Member i depends only on (base_seed, i): a larger ensemble extends a
// smaller one without changing its members.
TEST(MonteCarlo, NoiseEnsembleMembersIndependentOfEnsembleSize) {
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);
  const double sigma = 1e-4 * p.icp;
  NoiseEnsembleOptions opts;
  opts.settle_periods = 10.0;
  opts.measure_periods = 40.0;
  const auto small = run_noise_ensemble(p, sigma, 9, 3, opts);
  const auto large = run_noise_ensemble(p, sigma, 9, 8, opts);
  ASSERT_EQ(small.size(), 3u);
  ASSERT_EQ(large.size(), 8u);
  for (std::size_t i = 0; i < small.size(); ++i) {
    EXPECT_EQ(large[i].theta_mean, small[i].theta_mean) << i;
    EXPECT_EQ(large[i].theta_rms, small[i].theta_rms) << i;
    EXPECT_EQ(large[i].theta_peak, small[i].theta_peak) << i;
    EXPECT_EQ(large[i].events, small[i].events) << i;
  }
}

TEST(MonteCarlo, AcquisitionBatchMatchesSerialLoop) {
  const PllParameters p = make_typical_loop(0.2 * kW0, kW0);
  const std::vector<AcquisitionCase> cases{{p, 0.005}, {p, 0.02}};
  ThreadPool one(1), four(4);
  const std::vector<double> batch = acquisition_periods(cases, one);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(acquisition_periods(cases, four), batch);
  for (std::size_t i = 0; i < cases.size(); ++i) {
    // Serial re-run of the same experiment.
    PllTransientSim sim(p);
    sim.set_recording(false);
    sim.set_initial_frequency_offset(cases[i].rel_offset);
    const double tol = kAcquisitionTolerance * p.period();
    double elapsed = 0.0, locked = -1.0;
    while (elapsed < kAcquisitionMaxPeriods) {
      sim.run_periods(kAcquisitionPollPeriods);
      elapsed += kAcquisitionPollPeriods;
      if (sim.is_locked(tol)) {
        locked = elapsed;
        break;
      }
    }
    EXPECT_EQ(batch[i], locked);
    EXPECT_GT(batch[i], 0.0);  // both offsets must actually lock
  }
  // Larger offset takes at least as long.
  EXPECT_GE(batch[1], batch[0]);
}

// A loop past its half-rate boundary (gamma = 4: 0.276 w0) never locks;
// acquisition_periods gives up after kAcquisitionMaxPeriods and reads
// -1 for it while the stable case next to it locks.
TEST(MonteCarlo, AcquisitionGivesUpOnAHalfRateUnstableLoop) {
  const PllParameters unstable = make_typical_loop(0.3 * kW0, kW0, 4.0);
  const PllParameters stable = make_typical_loop(0.2 * kW0, kW0, 4.0);
  const std::vector<double> periods =
      acquisition_periods({{unstable, 0.01}, {stable, 0.01}});
  ASSERT_EQ(periods.size(), 2u);
  EXPECT_EQ(periods[0], -1.0);
  EXPECT_GT(periods[1], 0.0);
  EXPECT_LT(periods[1], kAcquisitionMaxPeriods);
}

// A member's lock time does not depend on the batch around it.  The mix
// holds a zero offset, which starts in lock and fills the lock
// detector's pulse history with zero-width (coincident-edge) pulses,
// next to offsets that lock after different numbers of periods; each
// reads the same as alone.
TEST(MonteCarlo, AcquisitionBatchIndependentOfBatchComposition) {
  const PllParameters p = make_typical_loop(0.2 * kW0, kW0);
  const std::vector<AcquisitionCase> cases{
      {p, 0.0}, {p, 0.001}, {p, 0.05}, {p, 0.005}};
  const std::vector<double> batch = acquisition_periods(cases);
  ASSERT_EQ(batch.size(), cases.size());
  for (std::size_t i = 0; i < cases.size(); ++i) {
    const std::vector<double> alone = acquisition_periods({cases[i]});
    ASSERT_EQ(alone.size(), 1u);
    EXPECT_EQ(batch[i], alone[0]) << "case " << i;
  }
  // The loop that starts in lock reads locked, not -1.
  EXPECT_GE(batch[0], 0.0);
  // The members finish at different polls.
  EXPECT_NE(batch[1], batch[2]);
  EXPECT_NE(batch[2], batch[3]);
}

TEST(MonteCarlo, StepResponseBatchMatchesSingleRun) {
  const double delta = 1e-3;
  const std::size_t count = 80;
  const std::vector<PllParameters> loops{
      make_typical_loop(0.1 * kW0, kW0),
      make_typical_loop(0.2 * kW0, kW0)};
  ThreadPool one(1), four(4);
  const auto batch = step_response_batch(loops, count, delta, one);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(step_response_batch(loops, count, delta, four), batch);
  for (std::size_t k = 0; k < loops.size(); ++k) {
    TransientConfig cfg;
    cfg.sample_interval = loops[k].period();
    PllTransientSim sim(loops[k], {}, cfg);
    sim.set_initial_theta(-delta);
    sim.run_periods(static_cast<double>(count) + 2.0);
    ASSERT_GE(batch[k].size(), 2u);
    EXPECT_EQ(batch[k][0], 0.0);
    for (std::size_t n = 1; n < batch[k].size(); ++n) {
      EXPECT_EQ(batch[k][n], sim.theta_samples()[n - 1] / delta + 1.0);
    }
    // A locked loop's normalized step response ends near 1.
    EXPECT_NEAR(batch[k].back(), 1.0, 0.05);
  }
}

// Mixed batches: repeated and distinct loops in one call each read the
// same as a batch of that loop alone.
TEST(MonteCarlo, StepResponseBatchIndependentOfBatchComposition) {
  const double delta = 1e-3;
  const std::size_t count = 60;
  const PllParameters a = make_typical_loop(0.1 * kW0, kW0);
  const PllParameters b = make_typical_loop(0.2 * kW0, kW0);
  const std::vector<PllParameters> loops{a, a, a, b, a, a};
  const auto batch = step_response_batch(loops, count, delta);
  const auto alone_a = step_response_batch({a}, count, delta);
  const auto alone_b = step_response_batch({b}, count, delta);
  ASSERT_EQ(batch.size(), loops.size());
  for (std::size_t k = 0; k < loops.size(); ++k) {
    const std::vector<double>& want = k == 3 ? alone_b[0] : alone_a[0];
    EXPECT_EQ(batch[k], want) << "loop " << k;
  }
  EXPECT_NE(alone_a[0], alone_b[0]);
}

// --- input validation (all four Monte Carlo entry points) ---

TEST(MonteCarloValidation, RejectsDegenerateInputs) {
  const PllParameters p = make_typical_loop(0.1 * kW0, kW0);

  EXPECT_THROW(monte_carlo_map<double>(
                   0, 1, [](std::size_t, std::uint64_t) { return 0.0; }),
               std::invalid_argument);

  NoiseEnsembleOptions nopts;
  EXPECT_THROW(run_noise_ensemble(p, 1e-6, 1, 0, nopts),
               std::invalid_argument);
  nopts.settle_periods = -1.0;
  EXPECT_THROW(run_noise_ensemble(p, 1e-6, 1, 2, nopts),
               std::invalid_argument);
  nopts.settle_periods = 1.0;
  nopts.measure_periods = 0.0;
  EXPECT_THROW(run_noise_ensemble(p, 1e-6, 1, 2, nopts),
               std::invalid_argument);
  nopts.measure_periods = -5.0;
  EXPECT_THROW(run_noise_ensemble(p, 1e-6, 1, 2, nopts),
               std::invalid_argument);

  EXPECT_THROW(acquisition_periods({}), std::invalid_argument);

  EXPECT_THROW(step_response_batch({}, 10, 1e-3), std::invalid_argument);
  EXPECT_THROW(step_response_batch({p}, 0, 1e-3), std::invalid_argument);
  EXPECT_THROW(step_response_batch({p}, 10, 0.0), std::invalid_argument);

  // Non-finite inputs throw instead of running (each of these used to
  // hang past 20 s of wall time).
  EXPECT_THROW(run_noise_ensemble(p, kInf, 1, 2), std::invalid_argument);
  for (double x : {kNaN, kInf}) {
    EXPECT_THROW(acquisition_periods({{p, x}}), std::invalid_argument);
    EXPECT_THROW(step_response_batch({p}, 10, x), std::invalid_argument);
  }
}

}  // namespace
}  // namespace htmpll
