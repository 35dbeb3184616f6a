#include <cmath>
#include <cstring>
#include <numbers>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "htmpll/timedomain/probe.hpp"
#include "htmpll/timedomain/sample_hold_sim.hpp"

namespace htmpll {
namespace {

constexpr double kPi = std::numbers::pi;

TEST(SingleBin, RecoversKnownGainAndPhase) {
  // y = 0.5 x delayed by 30 degrees at w = 2.
  const double w = 2.0;
  const cplx h_true = 0.5 * std::exp(cplx{0.0, -kPi / 6.0});
  std::vector<double> t, x, y;
  const int n = 4096;
  const double dt = (40.0 * kPi / w) / n;  // 20 cycles
  for (int k = 0; k < n; ++k) {
    const double tk = k * dt;
    t.push_back(tk);
    x.push_back(std::sin(w * tk));
    y.push_back(0.5 * std::sin(w * tk - kPi / 6.0));
  }
  const cplx h = single_bin_transfer(t, y, x, w);
  EXPECT_NEAR(std::abs(h - h_true), 0.0, 1e-6);
}

TEST(SingleBin, RejectsAdditiveToneAtOtherFrequency) {
  // A strong interferer 7 bins away must be suppressed by the window.
  const double w = 1.0;
  std::vector<double> t, x, y;
  const int n = 8192;
  const double span = 32.0 * 2.0 * kPi / w;  // 32 cycles
  const double dt = span / n;
  const double w_int = w * (1.0 + 7.0 / 32.0);
  for (int k = 0; k < n; ++k) {
    const double tk = k * dt;
    t.push_back(tk);
    x.push_back(std::cos(w * tk));
    y.push_back(2.0 * std::cos(w * tk) + 5.0 * std::sin(w_int * tk));
  }
  const cplx h = single_bin_transfer(t, y, x, w);
  EXPECT_NEAR(std::abs(h - cplx{2.0}), 0.0, 2e-2);
}

TEST(SingleBin, ValidatesInput) {
  const std::vector<double> t{1.0, 2.0};
  EXPECT_THROW(single_bin_transfer(t, {1.0}, {1.0, 2.0}, 1.0),
               std::invalid_argument);
  EXPECT_THROW(single_bin_transfer(t, {1.0, 2.0}, {1.0, 2.0}, 1.0),
               std::invalid_argument);  // too short
}

/// single_bin_ratio as written with one complex exponential per sample
/// and bin: the value reference for its one-sincos form.
cplx single_bin_ratio_cexp(const std::vector<double>& t,
                           const std::vector<double>& y, double omega_y,
                           const std::vector<double>& x, double omega_x) {
  const std::size_t n = t.size();
  cplx ybin{0.0}, xbin{0.0};
  for (std::size_t k = 0; k < n; ++k) {
    const double hann =
        0.5 * (1.0 - std::cos(2.0 * std::numbers::pi *
                              static_cast<double>(k) /
                              static_cast<double>(n - 1)));
    ybin += hann * y[k] * std::exp(cplx{0.0, -omega_y * t[k]});
    xbin += hann * x[k] * std::exp(cplx{0.0, -omega_x * t[k]});
  }
  return ybin / xbin;
}

TEST(SingleBin, OneSincosPerSampleMatchesComplexExpBitwise) {
  // Random records of 8..20000 samples reaching up to 1e4 periods, with
  // the baseband case (one frequency for both bins), distinct bins, and
  // a band probe's output bin above w0.
  const double w0 = 2.0 * kPi;  // T = 1
  std::mt19937_64 rng(15u);
  std::uniform_int_distribution<std::size_t> length(8, 20000);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::normal_distribution<double> value(0.0, 1.0);
  const auto same = [](cplx a, cplx b) {
    return std::memcmp(&a, &b, sizeof(cplx)) == 0;
  };
  for (int trial = 0; trial < 30; ++trial) {
    const std::size_t n = length(rng);
    const double span = 1e4 * unit(rng);
    const double t0 = (1e4 - span) * unit(rng);
    std::vector<double> t(n), y(n), x(n);
    for (std::size_t k = 0; k < n; ++k) {
      t[k] = t0 + span * static_cast<double>(k) / static_cast<double>(n);
      y[k] = value(rng);
      x[k] = value(rng);
    }
    const double wm = (0.001 + 0.489 * unit(rng)) * w0;
    const double band = static_cast<double>(1 + trial % 8);
    for (double wy : {wm, (0.001 + 0.489 * unit(rng)) * w0, band * w0 + wm}) {
      EXPECT_TRUE(same(single_bin_ratio(t, y, wy, x, wm),
                       single_bin_ratio_cexp(t, y, wy, x, wm)))
          << "trial " << trial << " n " << n << " wy " << wy << " wx " << wm;
    }
  }
}

TEST(Probe, OptionsValidated) {
  const PllParameters p = make_typical_loop(0.2 * 2.0 * kPi, 2.0 * kPi);
  ProbeOptions opts;
  opts.measure_periods = 0;
  EXPECT_THROW(measure_baseband_transfer(p, 1.0, opts),
               std::invalid_argument);
  EXPECT_THROW(measure_baseband_transfer(p, 0.0), std::invalid_argument);
}

TEST(Probe, InBandMeasurementTracksReference) {
  // Deep inside the loop bandwidth H_00 ~ 1.
  const double w0 = 2.0 * kPi;
  const PllParameters p = make_typical_loop(0.2 * w0, w0);
  ProbeOptions opts;
  opts.settle_periods = 120.0;
  opts.measure_periods = 12;
  const TransferMeasurement m =
      measure_baseband_transfer(p, 0.01 * w0, opts);
  EXPECT_NEAR(std::abs(m.value), 1.0, 0.03);
  EXPECT_GT(m.events, 100u);
  EXPECT_GT(m.simulated_time, 0.0);
}

// --- the exact theta bin ------------------------------------------------

constexpr double kW0 = 2.0 * kPi;  // T = 1
/// Slow units, T = 1e9 s: the typical loop's modal basis is ill
/// conditioned there (kappa ~ 2/w_p, w_p in rad/s), so the matrix itself
/// puts the simulators on the Van Loan path.
constexpr double kSlowW0 = 2.0 * kPi * 1e-9;

/// Continuous-Hann Riemann sum over the recorded samples inside
/// [t0, t0 + width]: the oracle for the exact bins.
cplx riemann_hann_bin(const std::vector<double>& t,
                      const std::vector<double>& y, double omega, double t0,
                      double width, double dt) {
  cplx acc{0.0};
  for (std::size_t k = 0; k < t.size(); ++k) {
    if (t[k] < t0 || t[k] > t0 + width) continue;
    const double w = 0.5 * (1.0 - std::cos(2.0 * kPi * (t[k] - t0) / width));
    acc += w * y[k] * std::exp(cplx{0.0, -omega * t[k]});
  }
  return acc * dt;
}

struct OracleCase {
  const char* name;
  double ratio;  // w_UG / w0
  double f;      // w_m / w0
  int band;      // the bin sits at band w0 + w_m
  double phase;  // modulation phase
  bool leakage;  // DC leakage current: a static phase offset
  bool slow_units;  // T = 1e9 s: Van Loan propagators
  bool sample_hold;
  double tol;    // relative agreement, ~3x the measured value
};

class ThetaBinOracle : public ::testing::TestWithParam<OracleCase> {};

/// Settles, then in one run records theta every T/256.37 (a rate no
/// multiple of w0) with the exact bin on, and compares the two.
template <class Sim>
void expect_bin_matches_record(Sim& sim, const OracleCase& c, double w0,
                               double omega_m) {
  EXPECT_EQ(sim.spectral_propagators(), !c.slow_units) << c.name;
  const double t = sim.period();
  sim.run_until(150.0 * t);
  sim.set_recording(true);
  const double t0 = sim.time();
  const double width = 12.0 * 2.0 * kPi / omega_m;
  const double omega = c.band * w0 + omega_m;
  const cplx bin = sim.measure_theta_bin(omega, width);
  const cplx oracle = riemann_hann_bin(sim.sample_times(),
                                       sim.theta_samples(), omega, t0, width,
                                       t / 256.37);
  EXPECT_LT(std::abs(bin - oracle) / std::abs(bin), c.tol)
      << c.name << ": bin " << bin << " oracle " << oracle;
}

TEST_P(ThetaBinOracle, MatchesRiemannSumOfDenseRecord) {
  const OracleCase c = GetParam();
  const double w0 = c.slow_units ? kSlowW0 : kW0;
  const PllParameters p = make_typical_loop(c.ratio * w0, w0);
  const double t = p.period();
  ReferenceModulation mod;
  mod.amplitude = 1e-3 * t;
  mod.omega = c.f * w0;
  mod.phase = c.phase;
  TransientConfig cfg;
  cfg.sample_interval = t / 256.37;
  cfg.record = false;
  if (c.sample_hold) {
    SampleHoldPllSim sim(p, mod, cfg);
    expect_bin_matches_record(sim, c, w0, mod.omega);
  } else {
    PllTransientSim sim(p, mod, cfg);
    if (c.leakage) sim.set_leakage(2e-3 * p.icp, 0.1 * t);
    expect_bin_matches_record(sim, c, w0, mod.omega);
  }
}

// Measured at 256.37 samples per T: 4.4e-7, 5.1e-6, 2.4e-5, 7.7e-8,
// 6.7e-8, 7.5e-6 and 1.9e-12 -- the Riemann sum's own error at theta's
// kinks, which keeps falling with the rate (<= 7e-11 at 16384.37
// samples per T).
INSTANTIATE_TEST_SUITE_P(
    Cases, ThetaBinOracle,
    ::testing::Values(
        OracleCase{"baseband", 0.2, 0.12, 0, 0.0, false, false, false, 1.5e-6},
        OracleCase{"band -1", 0.2, 0.12, -1, 0.0, false, false, false, 1.5e-5},
        OracleCase{"band 2", 0.2, 0.12, 2, 0.0, false, false, false, 7e-5},
        OracleCase{"phase", 0.15, 0.09, 0, 0.7, false, false, false, 2.5e-7},
        OracleCase{"leakage", 0.15, 0.09, 0, 0.0, true, false, false, 2e-7},
        OracleCase{"slow units", 0.2, 0.12, 1, 0.0, false, true, false,
                   2.5e-5},
        OracleCase{"sample-hold", 0.15, 0.1, 0, 0.3, false, false, true,
                   1e-11}));

TEST(ThetaBin, ReferenceBinMatchesRiemannSum) {
  ReferenceModulation mod;
  mod.amplitude = 2e-3;
  mod.omega = 0.37;
  mod.phase = -1.1;
  const double t0 = 13.0, width = 9.0 * 2.0 * kPi / mod.omega;
  const double dt = width / 200000.0;
  std::vector<double> t, y;
  for (double tk = t0; tk <= t0 + width; tk += dt) {
    t.push_back(tk);
    y.push_back(mod.value(tk));
  }
  // The measured bin and two off-bin frequencies, one between lobes.
  for (double omega : {mod.omega, 1.3 * mod.omega, -0.55 * mod.omega}) {
    const cplx exact = mod.hann_bin(omega, t0, width);
    const cplx oracle = riemann_hann_bin(t, y, omega, t0, width, dt);
    EXPECT_LT(std::abs(exact - oracle), 1e-9 * std::abs(mod.hann_bin(
                                                  mod.omega, t0, width)))
        << "omega " << omega;
  }
  EXPECT_EQ(ReferenceModulation{}.hann_bin(1.0, 0.0, 10.0), cplx{0.0});
}

/// Expects `f` to throw std::invalid_argument whose message contains
/// `what`.
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

TEST(ThetaBin, RejectsWindowFrequenciesNearDc) {
  const PllParameters p = make_typical_loop(0.2 * kW0, kW0);
  ProbeOptions opts;
  opts.settle_periods = 20.0;
  // n = -1 at w_m = 24/25 w0: the output sits at -w0/25, exactly one
  // bin (2 pi / width = w_m / 24) below DC, so omega + 2 pi / width = 0.
  expect_rejected(
      [&] { measure_band_transfer(p, -1, 24.0 / 25.0 * kW0, opts); },
      "omega = -0.251");
  // One modulation period puts a baseband probe's omega - 2 pi / width
  // on DC.
  opts.measure_periods = 1;
  expect_rejected([&] { measure_baseband_transfer(p, 0.1 * kW0, opts); },
                  "DC");
  // The bin itself: omega within 0.01 bins of DC.
  const RVector x0(3, 0.0);
  expect_rejected([&] { ThetaBin(1e-4, 0.0, 2.0 * kPi, x0); }, "DC");
  EXPECT_NO_THROW(ThetaBin(0.5, 0.0, 2.0 * kPi, x0));
}

TEST(ThetaBin, RejectsASingularSolve) {
  // x' = [0 1; -1 0] x + [0; 1] u rings at 1 rad/s, so A - j I is
  // exactly singular at the bin omega = 1.
  StateSpace osc;
  osc.a = RMatrix{{0.0, 1.0}, {-1.0, 0.0}};
  osc.b = RMatrix{{0.0}, {1.0}};
  osc.c = RMatrix{{1.0, 0.0}};
  ThetaBin bin(1.0, 0.0, 40.0 * kPi, RVector{0.0, 0.0});
  bin.add_segment(0.0, 1.0, 1.0);
  expect_rejected([&] { (void)bin.finish(osc, RVector{0.1, 0.2}); },
                  "singular pivot");
}

TEST(ThetaBin, RejectsBadWindowWidth) {
  const RVector x0(3, 0.0);
  for (double width : {0.0, -1.0, std::nan(""), HUGE_VAL}) {
    expect_rejected([&] { ThetaBin(0.5, 0.0, width, x0); }, "width");
    PllTransientSim sim(make_typical_loop(0.1 * kW0, kW0));
    expect_rejected([&] { (void)sim.measure_theta_bin(0.5, width); },
                    "omega = 0.5");
    EXPECT_EQ(sim.time(), 0.0);
    EXPECT_EQ(sim.event_count(), 0u);
  }
}

TEST(ThetaBin, RejectsBadGridPeriod) {
  // The period anchors the segment phasors on the reference grid; 0
  // means no grid.
  const RVector x0(3, 0.0);
  for (double period : {-1.0, std::nan(""), HUGE_VAL}) {
    expect_rejected([&] { ThetaBin(0.5, 0.0, 10.0, x0, period); },
                    "grid period");
  }
  EXPECT_NO_THROW(ThetaBin(0.5, 0.0, 10.0, x0, 0.0));
  EXPECT_NO_THROW(ThetaBin(0.5, 0.0, 10.0, x0, 1.0));
}

}  // namespace
}  // namespace htmpll
