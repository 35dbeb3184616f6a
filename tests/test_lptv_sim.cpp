#include <cmath>
#include <limits>
#include <numbers>

#include <gtest/gtest.h>

#include "htmpll/core/stability.hpp"
#include "htmpll/timedomain/lptv_vco_sim.hpp"

namespace htmpll {
namespace {

const cplx j{0.0, 1.0};
constexpr double kW0 = 2.0 * std::numbers::pi;  // T = 1

PllParameters loop(double ratio) { return make_typical_loop(ratio * kW0, kW0); }

HarmonicCoefficients flat_isf() { return HarmonicCoefficients(cplx{1.0}); }

TEST(IsfWaveformTest, DcOnlyIsConstant) {
  const PllParameters p = loop(0.1);
  const IsfWaveform v(flat_isf(), p.kvco, p.w0);
  EXPECT_NEAR(v(0.0), p.kvco, 1e-15);
  EXPECT_NEAR(v(0.37), p.kvco, 1e-15);
}

TEST(IsfWaveformTest, HarmonicWaveformShape) {
  const PllParameters p = loop(0.1);
  // v(t) = kvco (1 + 2*0.25*cos(w0 t)).
  const IsfWaveform v(HarmonicCoefficients::real_waveform(1.0, {cplx{0.25}}),
                      p.kvco, p.w0);
  EXPECT_NEAR(v(0.0), p.kvco * 1.5, 1e-12);
  EXPECT_NEAR(v(0.5), p.kvco * 0.5, 1e-12);  // cos(pi) = -1 at T/2
  // Periodicity.
  EXPECT_NEAR(v(0.3), v(1.3), 1e-12);
}

TEST(IsfWaveformTest, RejectsNonRealWaveform) {
  // Asymmetric coefficients (not conjugate-symmetric).
  CVector c{cplx{0.5, 0.1}, cplx{1.0}, cplx{0.2, 0.3}};
  EXPECT_THROW(IsfWaveform(HarmonicCoefficients(std::move(c)), 1.0, 1.0),
               std::invalid_argument);
}

TEST(IsfWaveformTest, RejectsNonFiniteScale) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(IsfWaveform(flat_isf(), nan, 1.0), std::invalid_argument);
  EXPECT_THROW(IsfWaveform(flat_isf(), inf, 1.0), std::invalid_argument);
  EXPECT_THROW(IsfWaveform(flat_isf(), 1.0, nan), std::invalid_argument);
  EXPECT_THROW(IsfWaveform(flat_isf(), 1.0, inf), std::invalid_argument);
}

TEST(LptvSim, QuiescentWhenLocked) {
  const PllParameters p = loop(0.15);
  LptvPllTransientSim sim(p, flat_isf());
  sim.run_periods(40.0);
  EXPECT_NEAR(sim.theta(), 0.0, 1e-9);
  EXPECT_GE(sim.event_count(), 79u);
}

TEST(LptvSim, MatchesExactSimulatorForTiVco) {
  // With a DC-only ISF the RK4 time-marcher must agree with the exact
  // event-driven simulator.
  const PllParameters p = loop(0.15);
  ReferenceModulation mod;
  mod.amplitude = 1e-3;
  mod.omega = 0.07 * kW0;

  LptvTransientConfig cfg;
  cfg.substeps_per_period = 128;
  LptvPllTransientSim rk(p, flat_isf(), mod, cfg);
  PllTransientSim exact(p, mod);
  rk.run_periods(120.0);
  exact.run_until(rk.time());

  ASSERT_FALSE(rk.theta_samples().empty());
  // Compare the last recorded samples (same uniform grid T/8).
  const auto& t1 = rk.sample_times();
  const auto& t2 = exact.sample_times();
  const std::size_t n = std::min(t1.size(), t2.size());
  ASSERT_GT(n, 100u);
  double worst = 0.0;
  for (std::size_t i = n - 64; i < n; ++i) {
    EXPECT_NEAR(t1[i], t2[i], 1e-12);
    worst = std::max(worst,
                     std::abs(rk.theta_samples()[i] -
                              exact.theta_samples()[i]));
  }
  EXPECT_LT(worst, 2e-6);  // vs. modulation response amplitude ~1e-3
}

TEST(LptvSim, ProbeMatchesHtmModelTiCase) {
  const PllParameters p = loop(0.15);
  const SamplingPllModel model(p);
  ProbeOptions opts;
  opts.settle_periods = 250.0;
  opts.measure_periods = 16;
  const double wm = 0.1 * kW0;
  const TransferMeasurement meas =
      measure_baseband_transfer_lptv(p, flat_isf(), wm, opts);
  const cplx predicted = model.baseband_transfer(j * wm);
  // Measured 4.5e-4.
  EXPECT_NEAR(std::abs(meas.value - predicted) / std::abs(predicted), 0.0,
              1.5e-3);
}

TEST(LptvSim, DcIsfProbeMatchesExactProbe) {
  // With a DC-only ISF the RK4 loop is the exact simulator's loop, so
  // its sampled probe must agree with the exact-bin probe.  Bounds are
  // ~3x the measured 3.9e-5, 2.4e-4 and 7.7e-6: the RK4 and
  // linear-interpolation error, and the sampled record's own leakage.
  struct Mark {
    double ratio, f, tol;
  };
  for (const Mark m : {Mark{0.15, 0.1, 1.2e-4}, Mark{0.2, 0.4, 7.5e-4},
                       Mark{0.1, 0.03, 2.5e-5}}) {
    const PllParameters p = loop(m.ratio);
    ProbeOptions opts;
    opts.settle_periods = 250.0;
    opts.measure_periods = 16;
    const double wm = m.f * kW0;
    const TransferMeasurement rk =
        measure_baseband_transfer_lptv(p, flat_isf(), wm, opts);
    const TransferMeasurement exact = measure_baseband_transfer(p, wm, opts);
    EXPECT_LT(std::abs(rk.value - exact.value) / std::abs(exact.value),
              m.tol)
        << "w_UG/w0 " << m.ratio << " w_m/w0 " << m.f;
  }
}

TEST(LptvSim, ProbeMatchesHtmModelLptvCase) {
  // The headline LPTV validation: a VCO whose sensitivity swings +-40%
  // over the cycle.  The HTM model with the same ISF must predict the
  // simulated response; the TI model must not (when the difference is
  // resolvable).
  const PllParameters p = loop(0.15);
  const cplx c1{0.2, 0.0};
  const HarmonicCoefficients isf_coeffs =
      HarmonicCoefficients::real_waveform(1.0, {c1});
  const SamplingPllModel lptv_model(p, isf_coeffs);
  const SamplingPllModel ti_model(p);

  ProbeOptions opts;
  opts.settle_periods = 300.0;
  opts.measure_periods = 20;
  const double wm = 0.12 * kW0;
  const TransferMeasurement meas =
      measure_baseband_transfer_lptv(p, isf_coeffs, wm, opts);

  const cplx lptv_pred = lptv_model.baseband_transfer(j * wm);
  const cplx ti_pred = ti_model.baseband_transfer(j * wm);
  const double err_lptv =
      std::abs(meas.value - lptv_pred) / std::abs(lptv_pred);
  EXPECT_LT(err_lptv, 2e-3);  // measured 5.9e-4
  // The ISF harmonic changes the response; the LPTV model must be the
  // better predictor.
  const double err_ti = std::abs(meas.value - ti_pred) / std::abs(ti_pred);
  EXPECT_LT(err_lptv, err_ti);
}

TEST(LptvSim, IsfRippleShiftsEffectiveMargins) {
  // The stability machinery runs unchanged on the LPTV lambda: a strong
  // ISF ripple measurably moves the effective margins relative to TI.
  const PllParameters p = loop(0.2);
  const SamplingPllModel ti(p);
  const SamplingPllModel lptv(
      p, HarmonicCoefficients::real_waveform(1.0, {cplx{0.3}}));
  const EffectiveMargins a = effective_margins(ti);
  const EffectiveMargins b = effective_margins(lptv);
  ASSERT_TRUE(a.eff_found && b.eff_found);
  EXPECT_GT(std::abs(a.eff_phase_margin_deg - b.eff_phase_margin_deg),
            0.05);
  // Half-rate criterion still real-valued for a real ISF.
  const cplx l = lptv.lambda(cplx{0.0, 0.5 * kW0});
  EXPECT_NEAR(l.imag(), 0.0, 1e-9 * std::abs(l));
}

TEST(LptvSim, ValidatesConfiguration) {
  const PllParameters p = loop(0.1);
  LptvTransientConfig cfg;
  cfg.substeps_per_period = 4;
  EXPECT_THROW(LptvPllTransientSim(p, flat_isf(), {}, cfg),
               std::invalid_argument);
  ReferenceModulation mod;
  mod.amplitude = 0.3;
  EXPECT_THROW(LptvPllTransientSim(p, flat_isf(), mod),
               std::invalid_argument);
}

TEST(LptvSim, RecordingControls) {
  const PllParameters p = loop(0.1);
  LptvPllTransientSim sim(p, flat_isf());
  sim.set_recording(false);
  sim.run_periods(5.0);
  EXPECT_TRUE(sim.sample_times().empty());
  sim.set_recording(true);
  sim.run_periods(5.0);
  EXPECT_FALSE(sim.sample_times().empty());
  sim.clear_samples();
  EXPECT_TRUE(sim.sample_times().empty());
}

}  // namespace
}  // namespace htmpll
