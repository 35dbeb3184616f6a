// Tests for the compiled evaluation-plan layer (core/eval_plan) and the
// batch kernels beneath it (linalg/batch_kernels).
//
// The contract under test: every grid API agrees with the same model's
// point-wise call to <= 1e-12 relative error, for randomized loop
// parameters, DC-only and LPTV ISFs, both PFD shapes, and evaluation
// points pushed arbitrarily close to the aliasing poles s = p + j n w0.
// The point-wise calls are the oracle.
//
// Built as its own executable so it also runs under
// -DHTMPLL_SANITIZE=thread, covering the per-thread scratch planes
// under concurrent sweeps.
#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "htmpll/core/aliasing_sum.hpp"
#include "htmpll/core/eval_plan.hpp"
#include "htmpll/core/sampling_pll.hpp"
#include "htmpll/core/stability.hpp"
#include "htmpll/linalg/batch_kernels.hpp"
#include "htmpll/linalg/simd.hpp"
#include "htmpll/lti/delay.hpp"
#include "htmpll/obs/diag.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/parallel/sweep.hpp"
#include "htmpll/util/grid.hpp"

namespace htmpll {
namespace {

constexpr double kTol = 1e-12;

double rel_err(cplx got, cplx want) {
  const double scale = std::max(1.0e-300, std::abs(want));
  return std::abs(got - want) / scale;
}

/// Runs `call` and returns the std::invalid_argument message it threw
/// ("" when it threw nothing).
template <class F>
std::string invalid_argument_message(F&& call) {
  try {
    call();
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

/// Random evaluation points: mostly jw-axis sweep points, plus points
/// off the axis and points a few parts in 1e8..1e12 away from the
/// aliasing poles s = j n w0 (where the factorized exponential must
/// fall back to the scalar operation sequence).
CVector random_points(std::mt19937& rng, double w0, std::size_t n) {
  std::uniform_real_distribution<double> frac(1e-3, 0.49);
  std::uniform_real_distribution<double> sign(-1.0, 1.0);
  std::uniform_int_distribution<int> harmonic(1, 3);
  std::uniform_real_distribution<double> eps_exp(-12.0, -8.0);
  CVector pts;
  for (std::size_t i = 0; i < n; ++i) {
    switch (i % 4) {
      case 0:  // jw-axis
        pts.push_back(cplx{0.0, frac(rng) * w0});
        break;
      case 1:  // off-axis (damped)
        pts.push_back(cplx{sign(rng) * 0.2 * w0, frac(rng) * w0});
        break;
      case 2: {  // near an aliasing pole s = j n w0
        const double eps = std::pow(10.0, eps_exp(rng)) * w0;
        pts.push_back(cplx{eps, harmonic(rng) * w0 + eps});
        break;
      }
      default:  // near the coth-zero band (Im u ~ pi/2 mod pi)
        pts.push_back(cplx{sign(rng) * 0.05 * w0,
                           (harmonic(rng) - 0.5) * w0 + sign(rng) * 1e-9});
        break;
    }
  }
  return pts;
}

/// Parameter: (LPTV ISF instead of the DC-only one, PFD shape).
class EvalPlanGrids
    : public ::testing::TestWithParam<std::tuple<bool, PfdShape>> {};

TEST_P(EvalPlanGrids, GridsMatchScalarWithinTolerance) {
  const auto [lptv, shape] = GetParam();
  std::mt19937 rng(20260806u);
  std::uniform_real_distribution<double> ug(0.02, 0.25);
  const HarmonicCoefficients isf =
      lptv ? HarmonicCoefficients::real_waveform(
                 1.0, {cplx{0.25, 0.1}, cplx{0.04, -0.07}})
           : HarmonicCoefficients(cplx{1.0});

  for (int trial = 0; trial < 4; ++trial) {
    const double w0 = 2.0 * std::numbers::pi * (trial + 1);
    SamplingPllOptions opts;
    opts.pfd_shape = shape;
    const SamplingPllModel m(make_typical_loop(ug(rng) * w0, w0), isf, opts);

    const CVector s_grid = random_points(rng, w0, 128);

    const CVector lam = m.lambda_grid(s_grid);
    const CVector h00 = m.baseband_transfer_grid(s_grid);
    const std::vector<int> bands = {-2, 0, 1, 3};
    const std::vector<CVector> cl = m.closed_loop_grid(bands, s_grid);

    for (std::size_t i = 0; i < s_grid.size(); ++i) {
      const cplx s = s_grid[i];
      EXPECT_LE(rel_err(lam[i], m.lambda(s)), kTol)
          << "lambda at s=" << s << " trial " << trial;
      EXPECT_LE(rel_err(h00[i], m.baseband_transfer(s)), kTol)
          << "H00 at s=" << s << " trial " << trial;
      for (std::size_t b = 0; b < bands.size(); ++b) {
        EXPECT_LE(rel_err(cl[b][i], m.closed_loop(bands[b], s)), kTol)
            << "H_{n,0} n=" << bands[b] << " at s=" << s;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    IsfsAndShapes, EvalPlanGrids,
    ::testing::Combine(::testing::Bool(),
                       ::testing::Values(PfdShape::kImpulse,
                                         PfdShape::kZeroOrderHold)));

TEST(EvalPlan, VtildeMatchesScalarWithinTolerance) {
  // The plan's V~_n reaches callers through closed_loop_grid (one plane
  // quotient by 1 + lambda); over every band of a truncation-8 window it
  // must match the point-wise V~ vector divided by the same 1 + lambda.
  std::mt19937 rng(7u);
  const double w0 = 2.0 * std::numbers::pi;
  const HarmonicCoefficients isf = HarmonicCoefficients::real_waveform(
      1.0, {cplx{0.2, 0.05}, cplx{-0.03, 0.08}});
  const int trunc = 8;
  std::vector<int> bands;
  for (int n = -trunc; n <= trunc; ++n) bands.push_back(n);
  for (PfdShape shape : {PfdShape::kImpulse, PfdShape::kZeroOrderHold}) {
    SamplingPllOptions opts;
    opts.pfd_shape = shape;
    const SamplingPllModel m(make_typical_loop(0.08 * w0, w0), isf, opts);
    const CVector s_grid = random_points(rng, w0, 32);
    const std::vector<CVector> cl = m.closed_loop_grid(bands, s_grid);
    for (std::size_t i = 0; i < s_grid.size(); ++i) {
      const cplx s = s_grid[i];
      const CVector v = m.vtilde(s, trunc);
      ASSERT_EQ(v.size(), bands.size());
      const cplx denom = 1.0 + m.lambda(s);
      for (std::size_t b = 0; b < bands.size(); ++b) {
        EXPECT_LE(rel_err(cl[b][i], v[b] / denom), kTol)
            << "V~_" << bands[b] << " at s=" << s;
      }
    }
  }
}

TEST(EvalPlan, LambdaDerivativeGridMatchesScalarAnalytic) {
  // The plan's derivative tables (order-bump rule per pole term, ZOH
  // product rule on the prefactor) against the point-wise analytic
  // lambda_derivative -- the plan's 1e-12 contract, here over random
  // loops, both shapes, and points pushed near the aliasing poles.
  std::mt19937 rng(20260807u);
  std::uniform_real_distribution<double> ug(0.02, 0.25);
  for (PfdShape shape : {PfdShape::kImpulse, PfdShape::kZeroOrderHold}) {
    for (int trial = 0; trial < 3; ++trial) {
      const double w0 = 2.0 * std::numbers::pi * (trial + 1);
      SamplingPllOptions opts;
      opts.pfd_shape = shape;
      const SamplingPllModel m(make_typical_loop(ug(rng) * w0, w0),
                               HarmonicCoefficients(cplx{1.0}), opts);
      const CVector s_grid = random_points(rng, w0, 96);
      const CVector dlam = m.lambda_derivative_grid(s_grid);
      for (std::size_t i = 0; i < s_grid.size(); ++i) {
        EXPECT_LE(rel_err(dlam[i], m.lambda_derivative(s_grid[i])), kTol)
            << "shape " << static_cast<int>(shape) << " s=" << s_grid[i];
      }
    }
  }
}

TEST(EvalPlan, LambdaDerivativeAgreesWithCentralDifference) {
  // Cross-check of the analytic derivative itself (not the batching):
  // central differences of point-wise lambda at well-conditioned jw
  // points.
  const double w0 = 2.0 * std::numbers::pi;
  for (PfdShape shape : {PfdShape::kImpulse, PfdShape::kZeroOrderHold}) {
    SamplingPllOptions opts;
    opts.pfd_shape = shape;
    const SamplingPllModel m(make_typical_loop(0.1 * w0, w0),
                             HarmonicCoefficients(cplx{1.0}), opts);
    const double h = 1e-6 * w0;
    for (double f : {0.03, 0.11, 0.27, 0.42}) {
      const cplx s{0.0, f * w0};
      const cplx fd = (m.lambda(s + h) - m.lambda(s - h)) / (2.0 * h);
      EXPECT_LE(rel_err(m.lambda_derivative(s), fd), 1e-5)
          << "shape " << static_cast<int>(shape) << " f=" << f;
    }
  }
}

TEST(EvalPlan, ExtraLoopDynamicsAndRepeatedPoles) {
  // With the ZOH 1/s factor, a parasitic pole gives multiplicity-3 poles
  // at the origin and a second integrator multiplicity 4 -- exercising
  // the S_3/S_4 kernel branches.  Multiplicity 4 leaves no headroom for
  // the derivative's order bump, so its derivative grid throws the
  // point-wise call's message.
  const double w0 = 2.0 * std::numbers::pi;
  const RationalFunction parasitic(
      Polynomial::constant(cplx{1.0}),
      Polynomial(CVector{cplx{1.0}, cplx{1.0 / (0.7 * w0)}}));
  std::mt19937 rng(99u);
  SamplingPllOptions zoh;
  zoh.pfd_shape = PfdShape::kZeroOrderHold;
  const RationalFunction extras[] = {parasitic,
                                     RationalFunction::integrator(1.0)};
  for (const RationalFunction& extra : extras) {
    const SamplingPllModel m(make_typical_loop(0.1 * w0, w0),
                             HarmonicCoefficients(cplx{1.0}), zoh, extra);
    const CVector s_grid = random_points(rng, w0, 64);
    const CVector lam = m.lambda_grid(s_grid);
    for (std::size_t i = 0; i < s_grid.size(); ++i) {
      EXPECT_LE(rel_err(lam[i], m.lambda(s_grid[i])), kTol)
          << "extra dynamics " << (&extra - extras) << " s=" << s_grid[i];
    }
  }
  const SamplingPllModel fourfold(make_typical_loop(0.1 * w0, w0),
                                  HarmonicCoefficients(cplx{1.0}), zoh,
                                  RationalFunction::integrator(1.0));
  const cplx s{0.0, 0.2 * w0};
  const std::string pointwise = invalid_argument_message(
      [&] { (void)fourfold.lambda_derivative(s); });
  ASSERT_NE(pointwise.find("multiplicity <= 3"), std::string::npos);
  const std::string grid = invalid_argument_message(
      [&] { (void)fourfold.lambda_derivative_grid({s}); });
  EXPECT_EQ(grid.substr(0, grid.find(" [")),
            pointwise.substr(0, pointwise.find(" [")));
}

TEST(EvalPlan, LtiClosedLoopGridMatchesPointwiseOracle) {
  // The compiled N/(D + N) against the point-wise A/(1 + A) on the
  // typical, second-order and 3rd-order Pade-delayed loops, both PFD
  // shapes, w from 1e-5 to 10 w0 at six bandwidth ratios.  At s = 0,
  // where A has its integrators' poles and A/(1 + A) is not finite, the
  // grid returns the closed loop's limit 1.
  const double w0 = 2.0 * std::numbers::pi;
  const std::vector<double> w = logspace(1e-5 * w0, 10.0 * w0, 4000);
  CVector s_grid = jw_grid(w);
  s_grid.push_back(cplx{0.0, 0.0});
  double worst = 0.0;
  for (int loop = 0; loop < 3; ++loop) {
    for (const PfdShape shape :
         {PfdShape::kImpulse, PfdShape::kZeroOrderHold}) {
      for (const double ratio : {0.002, 0.01, 0.05, 0.1, 0.2, 0.27}) {
        const PllParameters params =
            loop == 1 ? make_second_order_loop(ratio * w0, w0)
                      : make_typical_loop(ratio * w0, w0);
        const RationalFunction extra =
            loop == 2 ? pade_delay(0.05 * params.period(), 3)
                      : RationalFunction::constant(1.0);
        SamplingPllOptions opts;
        opts.pfd_shape = shape;
        const SamplingPllModel m(params, HarmonicCoefficients(cplx{1.0}),
                                 opts, extra);
        const CVector lti = m.lti_baseband_transfer_grid(s_grid);
        ASSERT_EQ(lti.size(), s_grid.size());
        for (std::size_t i = 0; i + 1 < s_grid.size(); ++i) {
          const double err =
              rel_err(lti[i], m.lti_baseband_transfer(s_grid[i]));
          worst = std::max(worst, err);
          EXPECT_LE(err, 1e-14) << "loop " << loop << " ratio " << ratio
                                << " w=" << w[i];
        }
        const cplx at_dc = m.lti_baseband_transfer(cplx{0.0, 0.0});
        EXPECT_FALSE(std::isfinite(at_dc.real()) &&
                     std::isfinite(at_dc.imag()));
        EXPECT_EQ(lti.back(), cplx(1.0, 0.0))
            << "loop " << loop << " ratio " << ratio;
      }
    }
  }
  EXPECT_GT(worst, 0.0);  // the two paths round differently
}

TEST(EvalPlan, CountersRecordBuildsAndGridPoints) {
  obs::enable();
  const auto before = obs::snapshot();
  const double w0 = 2.0 * std::numbers::pi;
  SamplingPllOptions opts;
  const SamplingPllModel model(make_typical_loop(0.1 * w0, w0),
                               HarmonicCoefficients(cplx{1.0}), opts);
  const CVector s_grid = jw_grid(logspace(1e-3 * w0, 0.45 * w0, 77));
  (void)model.lambda_grid(s_grid);
  const auto after = obs::snapshot();
  obs::disable();
  EXPECT_GE(after.counter_value("core.plan_builds") -
                before.counter_value("core.plan_builds"),
            1u);
  EXPECT_GE(after.counter_value("core.plan_grid_points") -
                before.counter_value("core.plan_grid_points"),
            77u);
}

TEST(EvalPlan, ConcurrentSweepsShareOnePlanSafely) {
  // Several threads sweep the same plan-backed model at once; the
  // per-thread scratch planes must keep them independent (verified
  // bit-exactly here, and for data races under TSan).
  const double w0 = 2.0 * std::numbers::pi;
  const HarmonicCoefficients isf =
      HarmonicCoefficients::real_waveform(1.0, {cplx{0.15, 0.02}});
  const SamplingPllModel model(make_typical_loop(0.1 * w0, w0), isf);
  // <= one chunk per sweep, so each thread's sweep runs inline on that
  // thread instead of contending for the shared pool.
  const CVector s_grid = jw_grid(logspace(1e-3 * w0, 0.49 * w0, 200));
  const CVector reference = model.lambda_grid(s_grid);

  std::vector<CVector> results(4);
  std::vector<std::thread> threads;
  for (auto& slot : results) {
    threads.emplace_back(
        [&, out = &slot] { *out = model.lambda_grid(s_grid); });
  }
  for (auto& t : threads) t.join();
  for (const CVector& r : results) {
    ASSERT_EQ(r.size(), reference.size());
    for (std::size_t i = 0; i < r.size(); ++i) {
      EXPECT_EQ(r[i], reference[i]) << "i=" << i;
    }
  }
}

TEST(EvalPlan, ConcurrentLptvBandSweepsShareOnePlanSafely) {
  // The multi-band sweep with an ISF fills the plan's per-thread
  // shifted-gain table; concurrent sweeps must not share it
  // (TSan-visible if they do).
  const double w0 = 2.0 * std::numbers::pi;
  const HarmonicCoefficients isf =
      HarmonicCoefficients::real_waveform(1.0, {cplx{0.1, -0.04}});
  const SamplingPllModel model(make_typical_loop(0.1 * w0, w0), isf);
  const CVector s_grid = jw_grid(logspace(1e-2 * w0, 0.45 * w0, 64));
  const std::vector<int> bands = {-1, 0, 2};
  const std::vector<CVector> reference =
      model.closed_loop_grid(bands, s_grid);

  std::vector<std::vector<CVector>> results(4);
  std::vector<std::thread> threads;
  for (auto& slot : results) {
    threads.emplace_back(
        [&, out = &slot] { *out = model.closed_loop_grid(bands, s_grid); });
  }
  for (auto& t : threads) t.join();
  for (const auto& r : results) {
    ASSERT_EQ(r.size(), reference.size());
    for (std::size_t b = 0; b < r.size(); ++b) {
      for (std::size_t i = 0; i < r[b].size(); ++i) {
        EXPECT_EQ(r[b][i], reference[b][i]);
      }
    }
  }
}

TEST(EvalPlan, ConcurrentLtiGridsMatchSerialBitwise) {
  // Four threads sweep the LTI closed loop of one model over four plan
  // blocks each; the per-thread scratch planes keep them independent
  // (bit-exact here, race-free under TSan).
  const double w0 = 2.0 * std::numbers::pi;
  const SamplingPllModel model(make_typical_loop(0.1 * w0, w0));
  const CVector s_grid = jw_grid(logspace(1e-4 * w0, 3.0 * w0, 1000));
  const CVector reference = model.lti_baseband_transfer_grid(s_grid);

  std::vector<CVector> results(4);
  std::vector<std::thread> threads;
  for (auto& slot : results) {
    threads.emplace_back([&, out = &slot] {
      *out = model.lti_baseband_transfer_grid(s_grid);
    });
  }
  for (auto& t : threads) t.join();
  for (const CVector& r : results) {
    ASSERT_EQ(r.size(), reference.size());
    for (std::size_t i = 0; i < r.size(); ++i) {
      EXPECT_EQ(r[i], reference[i]) << "i=" << i;
    }
  }
}

std::uint64_t guard_trip_tally() {
  return obs::diag_snapshot().tally[static_cast<std::size_t>(
      obs::DiagReason::kSimdBailoutGuardTrip)];
}

TEST(EvalPlan, PlaneQuotientFallbackLanesMatchScalar) {
  // Far up the jw axis the closing quotient's |s_n (1 + lambda)|^2
  // leaves [1e-290, 1e290] (at 1e150) and those lanes take the
  // std::complex fallback; 1e140 stays on the plane formula.  The
  // second-order loop keeps H_LF finite at infinity, so the bands stay
  // far above the underflow range there.
  const double w0 = 2.0 * std::numbers::pi;
  const SamplingPllModel m(make_second_order_loop(0.1 * w0, w0));
  const CVector s_grid = {cplx{0.0, 0.07 * w0}, cplx{0.0, 1e140},
                          cplx{0.0, 1e150}, cplx{0.0, 0.31 * w0}};
  const std::vector<int> bands = {-1, 0, 1};
  const std::vector<CVector> cl = m.closed_loop_grid(bands, s_grid);
  for (std::size_t b = 0; b < bands.size(); ++b) {
    for (std::size_t i = 0; i < s_grid.size(); ++i) {
      const cplx want = m.closed_loop(bands[b], s_grid[i]);
      ASSERT_GT(std::abs(want), 1e-200) << "s=" << s_grid[i];
      EXPECT_LE(rel_err(cl[b][i], want), kTol)
          << "n=" << bands[b] << " s=" << s_grid[i];
    }
  }
}

TEST(EvalPlan, PlaneQuotientFallbackLanesAreObservable) {
  // A fallback lane records a guard-trip diag event whose payload is the
  // out-of-range |d|^2; an ordinary jw grid records none.  (The grid
  // starts above 2e-3 w0, below which the pole-sum kernel's own
  // small-|u| guards trip.)
  obs::enable();
  obs::reset_counters();
  const double w0 = 2.0 * std::numbers::pi;
  const SamplingPllModel model(make_second_order_loop(0.1 * w0, w0));
  (void)model.closed_loop_grid(
      {-1, 0, 1}, jw_grid(logspace(1e-2 * w0, 0.45 * w0, 300)));
  EXPECT_EQ(guard_trip_tally(), 0u);
  (void)model.closed_loop_grid({0}, {cplx{0.0, 1e150}});
  const obs::DiagSnapshot snap = obs::diag_snapshot();
  obs::disable();
  EXPECT_GT(snap.tally[static_cast<std::size_t>(
                obs::DiagReason::kSimdBailoutGuardTrip)],
            0u);
  bool quotient_event = false;
  for (const obs::DiagEvent& ev : snap.events) {
    quotient_event |=
        ev.reason == obs::DiagReason::kSimdBailoutGuardTrip &&
        ev.payload > 1e290;
  }
  EXPECT_TRUE(quotient_event);
}

TEST(EvalPlan, ZeroDenominatorsKeepTheScalarDomainErrors) {
  // A zero plane-quotient denominator falls back to the std::complex
  // expression, so the plan throws the point-wise calls' messages.
  const double w0 = 2.0 * std::numbers::pi;
  const PllParameters loop = make_typical_loop(0.1 * w0, w0);
  const HarmonicCoefficients dc(cplx{1.0});
  const SamplingPllModel impulse(loop);
  // Band 1 at s = -j w0 sits on its integrator pole s = -j n w0; the
  // truncated sum's band -2 does so at s = 2 j w0.
  EXPECT_NE(invalid_argument_message([&] {
              (void)impulse.closed_loop_grid(
                  {-1, 0, 1}, {cplx{0.0, 0.2 * w0}, cplx{0.0, -w0}});
            }).find("V~ evaluated on an integrator pole s = -j n w0"),
            std::string::npos);
  EXPECT_NE(invalid_argument_message([&] {
              (void)impulse.lambda(cplx{0.0, 2.0 * w0},
                                   LambdaMethod::kTruncated, 4);
            }).find("V~ evaluated on an integrator pole s = -j n w0"),
            std::string::npos);
  // The ZOH quotient g / (s_m T) on a harmonic of w0.
  SamplingPllOptions zoh;
  zoh.pfd_shape = PfdShape::kZeroOrderHold;
  const SamplingPllModel held(loop, dc, zoh);
  EXPECT_NE(invalid_argument_message([&] {
              (void)held.closed_loop_grid(
                  {-1, 0, 1}, {cplx{0.0, 0.2 * w0}, cplx{0.0, w0}});
            }).find("ZOH shape evaluated on a harmonic of w0; "),
            std::string::npos);
}

TEST(EvalPlan, NonFiniteGridPointsAreRejectedOnBothPaths) {
  // The plan's grids and the point-wise map of A/(1 + A).
  const double w0 = 2.0 * std::numbers::pi;
  const SamplingPllModel model(make_typical_loop(0.1 * w0, w0));
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  for (const cplx bad : {cplx{0.0, nan}, cplx{nan, 0.3 * w0},
                         cplx{0.0, inf}}) {
    const CVector s_grid = {cplx{0.0, 0.1 * w0}, bad};
    const auto rejects = [&](auto&& call) {
      return invalid_argument_message(call).find("not finite") !=
             std::string::npos;
    };
    EXPECT_TRUE(rejects([&] { (void)model.lambda_grid(s_grid); }))
        << "s=" << bad;
    EXPECT_TRUE(rejects([&] { (void)model.baseband_transfer_grid(s_grid); }))
        << "s=" << bad;
    EXPECT_TRUE(
        rejects([&] { (void)model.closed_loop_grid({-1, 0}, s_grid); }))
        << "s=" << bad;
    EXPECT_TRUE(rejects([&] { (void)model.lambda_derivative_grid(s_grid); }))
        << "s=" << bad;
    EXPECT_TRUE(
        rejects([&] { (void)model.lti_baseband_transfer_grid(s_grid); }))
        << "s=" << bad;
  }
}

TEST(EvalPlan, ConcurrentMarginSearchesMatchSerial) {
  // Four threads each run effective_margins on their own w0: the
  // per-thread plan scratch keeps them independent (bit-exact here,
  // race-free under TSan).
  std::vector<SamplingPllModel> models;
  for (const double w0 : {2.0 * std::numbers::pi, 2.0e3 * std::numbers::pi,
                          2.0e6 * std::numbers::pi,
                          2.0e7 * std::numbers::pi}) {
    models.emplace_back(make_typical_loop(0.1 * w0, w0));
  }
  std::vector<EffectiveMargins> serial;
  for (const SamplingPllModel& model : models) {
    serial.push_back(effective_margins(model));
  }
  std::vector<EffectiveMargins> concurrent(models.size());
  std::vector<std::thread> threads;
  for (std::size_t k = 0; k < models.size(); ++k) {
    threads.emplace_back([&, k] {
      for (int rep = 0; rep < 3; ++rep) {
        concurrent[k] = effective_margins(models[k]);
      }
    });
  }
  for (auto& t : threads) t.join();
  for (std::size_t k = 0; k < models.size(); ++k) {
    EXPECT_TRUE(serial[k].eff_found && serial[k].lti_found);
    EXPECT_EQ(concurrent[k].lti_crossover, serial[k].lti_crossover);
    EXPECT_EQ(concurrent[k].lti_phase_margin_deg,
              serial[k].lti_phase_margin_deg);
    EXPECT_EQ(concurrent[k].eff_crossover, serial[k].eff_crossover);
    EXPECT_EQ(concurrent[k].eff_phase_margin_deg,
              serial[k].eff_phase_margin_deg);
  }
}

// ---- batch-kernel unit coverage ---------------------------------------

TEST(BatchKernels, HornerMatchesPolynomialBitwise) {
  // The bitwise contract is a property of the scalar dispatch path; the
  // vector path promises <= 1e-12 relative (covered in
  // test_simd_kernels).  Pin the ISA for the duration of the test.
  const simd::Isa prev = simd::active_isa();
  simd::set_isa(simd::Isa::kScalar);
  std::mt19937 rng(3u);
  std::uniform_real_distribution<double> coeff(-2.0, 2.0);
  const Polynomial p(CVector{cplx{coeff(rng), coeff(rng)},
                             cplx{coeff(rng), coeff(rng)},
                             cplx{coeff(rng), coeff(rng)},
                             cplx{coeff(rng), coeff(rng)}});
  const std::size_t n = 64;
  std::vector<double> s_re(n), s_im(n), out_re(n), out_im(n);
  for (std::size_t i = 0; i < n; ++i) {
    s_re[i] = coeff(rng);
    s_im[i] = coeff(rng);
  }
  batch_horner(p.coefficients().data(), p.coefficients().size(),
               s_re.data(), s_im.data(), n, out_re.data(), out_im.data());
  for (std::size_t i = 0; i < n; ++i) {
    const cplx want = p(cplx{s_re[i], s_im[i]});
    EXPECT_EQ(cplx(out_re[i], out_im[i]), want) << "i=" << i;
  }
  simd::set_isa(prev);
}

TEST(BatchKernels, RationalMatchesScalarWithinTolerance) {
  std::mt19937 rng(4u);
  std::uniform_real_distribution<double> coeff(-2.0, 2.0);
  const Polynomial num(CVector{cplx{1.0, 0.5}, cplx{0.3, -0.2},
                               cplx{coeff(rng), coeff(rng)}});
  const Polynomial den(CVector{cplx{0.7, -0.1}, cplx{coeff(rng)},
                               cplx{1.0}});
  const RationalFunction f(num, den);
  const std::size_t n = 64;
  std::vector<double> s_re(n), s_im(n), out_re(n), out_im(n), t_re(n),
      t_im(n);
  for (std::size_t i = 0; i < n; ++i) {
    s_re[i] = 3.0 * coeff(rng);
    s_im[i] = 3.0 * coeff(rng);
  }
  batch_rational(num.coefficients().data(), num.coefficients().size(),
                 den.coefficients().data(), den.coefficients().size(),
                 s_re.data(), s_im.data(), n, out_re.data(), out_im.data(),
                 t_re.data(), t_im.data());
  for (std::size_t i = 0; i < n; ++i) {
    const cplx want = f(cplx{s_re[i], s_im[i]});
    EXPECT_LE(rel_err(cplx(out_re[i], out_im[i]), want), kTol);
  }
}

TEST(BatchKernels, PoleSumsMatchHarmonicPoleSums) {
  // accumulate_pole_sums vs the scalar closed form, including points
  // driven to within 1e-12 w0 of the aliasing poles of S_k.
  std::mt19937 rng(5u);
  const double w0 = 2.0 * std::numbers::pi;
  const double t = 2.0 * std::numbers::pi / w0;
  const double c = std::numbers::pi / w0;
  std::uniform_real_distribution<double> re(-1.5, 1.5);

  PoleSumTerm term;
  term.pole = cplx{-0.3 * w0, 0.2 * w0};
  term.exp_pole_t = std::exp(term.pole * t);
  term.kmax = 4;
  term.residues[0] = cplx{0.4, -0.2};
  term.residues[1] = cplx{-1.1, 0.6};
  term.residues[2] = cplx{0.2, 0.9};
  term.residues[3] = cplx{-0.05, 0.3};

  const std::size_t n = 96;
  std::vector<double> s_re(n), s_im(n), e_re(n), e_im(n), acc_re(n, 0.0),
      acc_im(n, 0.0);
  for (std::size_t i = 0; i < n; ++i) {
    cplx s;
    if (i % 3 == 2) {
      // within ~1e-12 w0 of the pole's aliased copies
      const int harmonic = static_cast<int>(i % 5) - 2;
      s = term.pole + cplx{1e-12 * w0, harmonic * w0 + 1e-12 * w0};
    } else {
      s = cplx{re(rng) * w0, re(rng) * w0};
    }
    s_re[i] = s.real();
    s_im[i] = s.imag();
    const cplx e = std::exp(-t * s);
    e_re[i] = e.real();
    e_im[i] = e.imag();
  }
  accumulate_pole_sums(term, c, s_re.data(), s_im.data(), e_re.data(),
                       e_im.data(), n, acc_re.data(), acc_im.data());
  for (std::size_t i = 0; i < n; ++i) {
    cplx sums[4];
    harmonic_pole_sums(cplx{s_re[i], s_im[i]} - term.pole, w0, 4, sums);
    cplx want{0.0};
    for (int j = 0; j < 4; ++j) want += term.residues[j] * sums[j];
    EXPECT_LE(rel_err(cplx(acc_re[i], acc_im[i]), want), kTol)
        << "i=" << i << " s=(" << s_re[i] << "," << s_im[i] << ")";
  }
}

TEST(BatchKernels, HarmonicPoleSumsBatchIsBitIdenticalToScalarCalls) {
  std::mt19937 rng(6u);
  const double w0 = 3.0;
  std::uniform_real_distribution<double> re(-2.0, 2.0);
  for (int trial = 0; trial < 200; ++trial) {
    const cplx x{re(rng), re(rng)};
    for (int kmax = 1; kmax <= 4; ++kmax) {
      cplx batch[4];
      harmonic_pole_sums(x, w0, kmax, batch);
      for (int k = 1; k <= kmax; ++k) {
        EXPECT_EQ(batch[k - 1], harmonic_pole_sum(x, w0, k))
            << "x=" << x << " k=" << k << " kmax=" << kmax;
      }
    }
  }
}

TEST(BatchKernels, SplitJoinRoundTrips) {
  const CVector z = {cplx{1.5, -2.0}, cplx{0.0, 3.25}, cplx{-7.0, 0.5}};
  std::vector<double> re(z.size()), im(z.size());
  CVector back(z.size());
  split_planes(z.data(), z.size(), re.data(), im.data());
  join_planes(re.data(), im.data(), z.size(), back.data());
  EXPECT_EQ(back, z);
}

}  // namespace
}  // namespace htmpll
