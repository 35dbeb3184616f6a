#include <cmath>
#include <limits>
#include <numbers>
#include <random>

#include <gtest/gtest.h>

#include "htmpll/timedomain/pll_sim.hpp"

namespace htmpll {
namespace {

constexpr double kW0 = 2.0 * std::numbers::pi;  // T = 1 second

PllParameters loop(double ratio) { return make_typical_loop(ratio * kW0, kW0); }

TEST(PllSim, PerfectLockStaysQuiescent) {
  // Started exactly locked with no modulation: theta must remain ~0 and
  // no charge-pump pulses of finite width may appear.
  PllTransientSim sim(loop(0.2));
  sim.run_periods(50.0);
  EXPECT_NEAR(sim.theta(), 0.0, 1e-9);
  EXPECT_NEAR(sim.control_output(), 0.0, 1e-9);
  EXPECT_LT(sim.max_recent_pulse_width(), 1e-9);
  EXPECT_GE(sim.event_count(), 99u);  // ~2 edges per period
  // Coincident edges count as zero-width pulses, so it reads locked.
  EXPECT_TRUE(sim.is_locked(1e-12));
}

TEST(PllSim, InitialPhaseOffsetIsPulledIn) {
  PllTransientSim sim(loop(0.2));
  sim.set_initial_theta(0.02);  // 2% of a period
  sim.run_periods(200.0);
  EXPECT_NEAR(sim.theta(), 0.0, 1e-4);
  EXPECT_TRUE(sim.is_locked(1e-5));
}

TEST(PllSim, FrequencyOffsetIsAcquired) {
  PllTransientSim sim(loop(0.1));
  sim.set_initial_frequency_offset(0.02);  // 2% fast
  sim.run_periods(400.0);
  EXPECT_TRUE(sim.is_locked(1e-4));
  EXPECT_NEAR(sim.theta() - std::round(sim.theta()), 0.0, 1e-3);
}

TEST(PllSim, ModulationProducesBoundedResponse) {
  ReferenceModulation mod;
  mod.amplitude = 1e-3;
  mod.omega = 0.1 * kW0;
  PllTransientSim sim(loop(0.2), mod);
  sim.run_periods(300.0);
  // Well inside the loop bandwidth the VCO tracks the reference: theta
  // excursions stay within a few times the modulation amplitude.
  double max_theta = 0.0;
  for (double th : sim.theta_samples()) {
    max_theta = std::max(max_theta, std::abs(th));
  }
  EXPECT_GT(max_theta, 1e-4);  // it does respond...
  EXPECT_LT(max_theta, 5e-3);  // ...but does not blow up
}

TEST(PllSim, SamplesAreUniformAndAligned) {
  TransientConfig cfg;
  cfg.sample_interval = 0.25;
  PllTransientSim sim(loop(0.2), {}, cfg);
  sim.run_until(10.0);
  const auto& t = sim.sample_times();
  ASSERT_GT(t.size(), 30u);
  for (std::size_t i = 0; i < t.size(); ++i) {
    EXPECT_NEAR(t[i], 0.25 * static_cast<double>(i + 1), 1e-12);
  }
}

TEST(PllSim, RecordingCanBeToggled) {
  PllTransientSim sim(loop(0.2));
  sim.set_recording(false);
  sim.run_periods(10.0);
  EXPECT_TRUE(sim.sample_times().empty());
  sim.set_recording(true);
  sim.run_periods(10.0);
  EXPECT_FALSE(sim.sample_times().empty());
  sim.clear_samples();
  EXPECT_TRUE(sim.sample_times().empty());
}

TEST(PllSim, InitialConditionsRejectedAfterStart) {
  PllTransientSim sim(loop(0.2));
  sim.run_periods(1.0);
  EXPECT_THROW(sim.set_initial_theta(0.01), std::invalid_argument);
  EXPECT_THROW(sim.set_initial_frequency_offset(0.01),
               std::invalid_argument);
}

TEST(PllSim, OversizedModulationRejected) {
  ReferenceModulation mod;
  mod.amplitude = 0.5;  // half a period: not small-signal
  mod.omega = 1.0;
  EXPECT_THROW(PllTransientSim(loop(0.2), mod), std::invalid_argument);
}

TEST(PllSim, ReferenceModulationValueAndSlope) {
  ReferenceModulation mod;
  mod.amplitude = 2e-3;
  mod.omega = 3.0;
  mod.phase = 0.4;
  const double t = 1.7;
  EXPECT_NEAR(mod.value(t), 2e-3 * std::sin(3.0 * t + 0.4), 1e-15);
  EXPECT_NEAR(mod.slope(t), 2e-3 * 3.0 * std::cos(3.0 * t + 0.4), 1e-15);
  const ReferenceModulation off{};
  EXPECT_EQ(off.value(5.0), 0.0);
  EXPECT_EQ(off.slope(5.0), 0.0);
}

TEST(PllSim, ReferenceEdgeSolvesItsEquation) {
  // edge_time solves t + a sin(w t + p) = n T from one phasor at the
  // target.  Against a long double Newton solve, over random small-signal
  // modulations and targets from 1 to 1e6 periods, the edge agrees to
  // the stop rule max(tol, 4 ulp(target)) plus the rounding of the
  // double phase w n T + p itself (which any double evaluation of the
  // modulation at that time carries), and with no modulation it is the
  // target itself.
  std::mt19937 rng(314u);
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  const double tol = kEdgeTolerance;
  const auto ulp = [](double x) {
    const double a = std::abs(x);
    return std::nextafter(a, std::numeric_limits<double>::infinity()) - a;
  };
  for (int i = 0; i < 400; ++i) {
    ReferenceModulation mod;
    mod.amplitude = (i % 2 == 0 ? 1e-3 : 0.2) * (unit(rng) - 0.5);
    mod.omega = (0.01 + 0.5 * unit(rng)) * kW0;
    mod.phase = 6.0 * unit(rng);
    const double target =
        std::round(std::pow(10.0, 6.0 * unit(rng)));  // n T, T = 1
    const double t = mod.edge_time(target, tol);
    using ld = long double;
    ld tl = target;
    for (int it = 0; it < 60; ++it) {
      const ld arg = static_cast<ld>(mod.omega) * tl + mod.phase;
      const ld g = tl + static_cast<ld>(mod.amplitude) * std::sin(arg) -
                   static_cast<ld>(target);
      const ld gp = 1.0L + static_cast<ld>(mod.amplitude) * mod.omega *
                               std::cos(arg);
      tl -= g / gp;
    }
    const double phase_rounding =
        std::abs(mod.amplitude) * ulp(mod.omega * target + mod.phase);
    EXPECT_LE(std::abs(static_cast<ld>(t) - tl),
              std::max(tol, 4.0 * ulp(target)) + 2.0 * phase_rounding)
        << "target " << target << " a " << mod.amplitude << " w "
        << mod.omega;
  }
  EXPECT_EQ(ReferenceModulation{}.edge_time(12345.0, tol), 12345.0);
}

TEST(PllSim, RunUntilIsIncremental) {
  PllTransientSim a(loop(0.3));
  PllTransientSim b(loop(0.3));
  a.set_initial_theta(0.01);
  b.set_initial_theta(0.01);
  a.run_periods(40.0);
  for (int k = 0; k < 40; ++k) b.run_periods(1.0);
  EXPECT_NEAR(a.theta(), b.theta(), 1e-12);
  EXPECT_EQ(a.event_count(), b.event_count());
}

}  // namespace
}  // namespace htmpll
