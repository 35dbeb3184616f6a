#include <cmath>
#include <cstring>
#include <limits>
#include <random>

#include <gtest/gtest.h>

#include "htmpll/timedomain/loop_filter_sim.hpp"

#include "obs_scope.hpp"

namespace htmpll {
namespace {

StateSpace lowpass(double a) {
  // H = a/(s+a): x' = -a x + a u, y = x.
  StateSpace ss;
  ss.a = RMatrix{{-a}};
  ss.b = RMatrix{{a}};
  ss.c = RMatrix{{1.0}};
  ss.d = 0.0;
  return ss;
}

TEST(Integrator, StepResponseMatchesAnalytic) {
  PiecewiseExactIntegrator sim(lowpass(2.0));
  const double u = 1.0;
  double t = 0.0;
  for (int k = 0; k < 20; ++k) {
    const double h = 0.05 + 0.013 * k;  // deliberately irregular steps
    sim.advance(h, u);
    t += h;
    EXPECT_NEAR(sim.output(u), 1.0 - std::exp(-2.0 * t), 1e-12)
        << "t = " << t;
  }
}

TEST(Integrator, PeekDoesNotCommit) {
  PiecewiseExactIntegrator sim(lowpass(1.0));
  const RVector before = sim.state();
  const RVector peeked = sim.peek(0.5, 1.0);
  EXPECT_NE(peeked[0], before[0]);
  EXPECT_EQ(sim.state()[0], before[0]);
  EXPECT_EQ(sim.peek_theta(0.5, 1.0).theta, peeked[0]);
  EXPECT_EQ(sim.state()[0], before[0]);
}

TEST(Integrator, ZeroStepIsIdentity) {
  PiecewiseExactIntegrator sim(lowpass(1.0));
  sim.advance(0.3, 2.0);
  const RVector x = sim.state();
  const RVector y = sim.peek(0.0, 5.0);
  EXPECT_EQ(x[0], y[0]);
}

TEST(Integrator, NegativeStepThrows) {
  PiecewiseExactIntegrator sim(lowpass(1.0));
  EXPECT_THROW(sim.peek(-0.1, 0.0), std::invalid_argument);
}

TEST(Integrator, RejectsInfiniteStep) {
  // An infinite step used to pass the h >= 0 check and fill the
  // spectral state with NaN.  Both propagator paths reject it and leave
  // the state as it was.
  const double inf = std::numeric_limits<double>::infinity();
  for (bool phase_augmented : {true, false}) {
    PiecewiseExactIntegrator sim(phase_augmented
                                     ? augment_with_phase(lowpass(2.0), 0.5)
                                     : lowpass(2.0));
    EXPECT_EQ(sim.spectral_propagators(), phase_augmented);
    sim.advance(0.3, 1.0);
    const RVector before = sim.state();
    RVector out;
    double last = 0.0;
    EXPECT_THROW(sim.advance(inf, 1.0), std::invalid_argument);
    EXPECT_THROW(sim.peek_into(inf, 1.0, out), std::invalid_argument);
    EXPECT_THROW(sim.peek_last_many(&inf, 1, 1.0, &last),
                 std::invalid_argument);
    EXPECT_THROW(sim.peek_theta(inf, 1.0), std::invalid_argument);
    EXPECT_THROW(sim.peek(inf, 1.0), std::invalid_argument);
    EXPECT_EQ(sim.state(), before);
  }
}

TEST(Integrator, SetStateValidatesDimension) {
  PiecewiseExactIntegrator sim(lowpass(1.0));
  EXPECT_THROW(sim.set_state({1.0, 2.0}), std::invalid_argument);
  sim.set_state({3.0});
  EXPECT_DOUBLE_EQ(sim.state()[0], 3.0);
}

TEST(Integrator, SegmentedEqualsSingleStep) {
  // Propagating 10 sub-steps must equal one big step exactly (group
  // property of the exact propagator).
  PiecewiseExactIntegrator a(lowpass(3.0));
  PiecewiseExactIntegrator b(lowpass(3.0));
  const double u = 0.7;
  for (int k = 0; k < 10; ++k) a.advance(0.1, u);
  b.advance(1.0, u);
  EXPECT_NEAR(a.state()[0], b.state()[0], 1e-13);
}

TEST(Integrator, IntegratorPlusPhaseChain) {
  // x1' = u (cap), x2' = k x1 (phase): after holding u = 1 for t,
  // x1 = t, x2 = k t^2 / 2.  A is singular and defective -- the exact
  // propagator must still be exact.
  StateSpace ss;
  ss.a = RMatrix{{0.0, 0.0}, {2.0, 0.0}};
  ss.b = RMatrix{{1.0}, {0.0}};
  ss.c = RMatrix{{0.0, 1.0}};
  ss.d = 0.0;
  PiecewiseExactIntegrator sim(ss);
  sim.advance(3.0, 1.0);
  EXPECT_NEAR(sim.state()[0], 3.0, 1e-12);
  EXPECT_NEAR(sim.state()[1], 2.0 * 9.0 / 2.0, 1e-11);
}

TEST(Integrator, PeekIntoMatchesPeekBitwise) {
  PiecewiseExactIntegrator sim(lowpass(2.0));
  sim.advance(0.17, 0.9);
  RVector out;
  for (double h : {0.0, 1e-6, 0.03, 0.5, 2.0}) {
    const RVector ref = sim.peek(h, 0.4);
    sim.peek_into(h, 0.4, out);
    ASSERT_EQ(ref.size(), out.size());
    EXPECT_EQ(std::memcmp(ref.data(), out.data(),
                          ref.size() * sizeof(double)),
              0)
        << "h = " << h;
  }
}

TEST(Integrator, PropagatorMemoStaysExact) {
  // The one-entry memo rebuilds its propagator in place whenever h
  // changes: random step lengths interleaved with repeats of the
  // previous h and of a pinned set must keep every peek bit-exact.
  // A 1x1 lowpass has no modal build, so every peek can be compared
  // against a direct make_propagator call.
  PiecewiseExactIntegrator sim(lowpass(1.5));
  const PropagatorMemoCounts st;
  std::mt19937 rng(5u);
  std::uniform_real_distribution<double> step(0.01, 1.0);
  const std::vector<double> pinned{0.125, 0.25, 0.5};
  const auto direct = [&](double h) {
    return make_propagator(sim.system().a, sim.system().b, h)
        .advance(sim.state(), {0.3})[0];
  };
  for (int k = 0; k < 80; ++k) {
    const double h = step(rng);
    EXPECT_EQ(sim.peek(h, 0.3)[0], direct(h));
    EXPECT_EQ(sim.peek(h, 0.3)[0], direct(h));  // served by the memo
    for (double hp : pinned) EXPECT_EQ(sim.peek(hp, 0.3)[0], direct(hp));
  }
  EXPECT_EQ(st.lookups(), 80u * 5u);
  EXPECT_EQ(st.hits(), 80u);
}

TEST(Integrator, CacheHitRate) {
  const PropagatorMemoCounts st;
  PiecewiseExactIntegrator sim(lowpass(1.0));
  EXPECT_EQ(st.lookups(), 0u);  // building the integrator looks up nothing
  sim.peek(0.5, 1.0);  // miss
  EXPECT_DOUBLE_EQ(st.hit_rate(), 0.0);
  sim.peek(0.5, 1.0);  // hit
  sim.peek(0.5, 2.0);  // hit (key is h only)
  EXPECT_DOUBLE_EQ(st.hit_rate(), 2.0 / 3.0);
  sim.peek(0.25, 1.0);  // miss
  EXPECT_DOUBLE_EQ(st.hit_rate(), 0.5);
}

TEST(Integrator, SlowTimeUnitSelectsTheVanLoanPath) {
  // One phase-augmented system, the companion block of s (s + 2)
  // feeding theta, in two time units.  In seconds its modes {0, -2}
  // give a well-conditioned modal basis.  In a unit 2^30 times slower
  // (A and B divided, steps multiplied, all exactly) the pole sits at
  // -2^-29 rad/s, the basis's condition ~ 2^30 passes kMaxCondition and
  // the matrix alone sends the integrator to Van Loan.  The Van Loan
  // matrix [A h, B h] is the same in both units bit for bit, so the
  // slow integrator equals make_propagator on the unit system exactly,
  // and the modal integrator agrees with both to 1e-13.
  constexpr double kScale = 0x1p30;
  StateSpace unit;
  unit.a = RMatrix{{0.0, 1.0, 0.0}, {0.0, -2.0, 0.0}, {0.7, 0.2, 0.0}};
  unit.b = RMatrix{{0.0}, {1.0}, {0.4}};
  unit.c = RMatrix{{1.0, 0.0, 0.0}};
  StateSpace slow = unit;
  for (std::size_t i = 0; i < unit.order(); ++i) {
    for (std::size_t j = 0; j < unit.order(); ++j) slow.a(i, j) /= kScale;
    slow.b(i, 0) /= kScale;
  }
  PiecewiseExactIntegrator modal(unit);
  PiecewiseExactIntegrator van_loan(slow);
  EXPECT_TRUE(modal.spectral_propagators());
  EXPECT_FALSE(van_loan.spectral_propagators());
  RVector x(unit.order(), 0.0), next;
  for (int k = 0; k < 10; ++k) {
    const double h = 0.05 + 0.02 * k;
    modal.advance(h, 1.0);
    van_loan.advance(h * kScale, 1.0);
    make_propagator(unit.a, unit.b, h).advance_into(x, 1.0, next);
    x.swap(next);
  }
  for (std::size_t i = 0; i < unit.order(); ++i) {
    EXPECT_EQ(van_loan.state()[i], x[i]) << "state " << i;
    EXPECT_NEAR(modal.state()[i], x[i], 1e-13) << "state " << i;
  }
}

}  // namespace
}  // namespace htmpll
