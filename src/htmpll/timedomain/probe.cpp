#include "htmpll/timedomain/probe.hpp"

#include <cmath>
#include <numbers>

#include "htmpll/obs/metrics.hpp"
#include "htmpll/obs/trace.hpp"
#include "htmpll/parallel/thread_pool.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll {

namespace {

obs::Counter& probe_point_counter() {
  static obs::Counter& c = obs::counter("timedomain.probe_points");
  return c;
}

}  // namespace

cplx single_bin_ratio(const std::vector<double>& t,
                      const std::vector<double>& y, double omega_y,
                      const std::vector<double>& x, double omega_x) {
  HTMPLL_REQUIRE(t.size() == y.size() && t.size() == x.size(),
                 "record length mismatch");
  HTMPLL_REQUIRE(t.size() >= 8, "record too short for a bin estimate");
  HTMPLL_REQUIRE(std::isfinite(omega_y) && std::isfinite(omega_x),
                 "bin frequency must be finite");
  const std::size_t n = t.size();
  // e^{-j w t} as (cos, sin) of one sincos: glibc's cexp(0 + jy) is
  // exactly (cos y, sin y), so the sums match the complex-exp form bit
  // for bit.  Every baseband probe uses one frequency for both bins.
  // (Equal frequencies of opposite zero sign give +-0 sines, which the
  // +0.0-seeded sums absorb alike.)
  const bool same_bin = omega_y == omega_x;
  double yre = 0.0, yim = 0.0, xre = 0.0, xim = 0.0;
  for (std::size_t k = 0; k < n; ++k) {
    const double hann =
        0.5 * (1.0 - std::cos(2.0 * std::numbers::pi *
                              static_cast<double>(k) /
                              static_cast<double>(n - 1)));
    double sy, cy;
    __builtin_sincos(-omega_y * t[k], &sy, &cy);
    double sx = sy, cx = cy;
    if (!same_bin) __builtin_sincos(-omega_x * t[k], &sx, &cx);
    const double wy = hann * y[k];
    const double wx = hann * x[k];
    yre += wy * cy;
    yim += wy * sy;
    xre += wx * cx;
    xim += wx * sx;
  }
  const cplx ybin{yre, yim}, xbin{xre, xim};
  HTMPLL_REQUIRE(std::abs(xbin) > 0.0, "stimulus bin is empty");
  return ybin / xbin;
}

cplx single_bin_transfer(const std::vector<double>& t,
                         const std::vector<double>& y,
                         const std::vector<double>& x, double omega) {
  return single_bin_ratio(t, y, omega, x, omega);
}

void validate_probe_options(const ProbeOptions& opts) {
  HTMPLL_REQUIRE(opts.amplitude_fraction > 0.0,
                 "modulation amplitude must be positive");
  HTMPLL_REQUIRE(opts.settle_periods >= 0.0 &&
                     std::isfinite(opts.settle_periods),
                 "settle period count must be non-negative and finite");
  HTMPLL_REQUIRE(opts.measure_periods >= 1, "need >= 1 measurement period");
  HTMPLL_REQUIRE(opts.samples_per_period >= 8,
                 "need >= 8 samples per modulation period");
  HTMPLL_REQUIRE(opts.warm_resettle_periods >= 0.0 &&
                     std::isfinite(opts.warm_resettle_periods),
                 "warm re-settle period count must be non-negative and "
                 "finite");
}

TransientCheckpoint make_settled_checkpoint(const PllParameters& params,
                                            double settle_periods) {
  HTMPLL_REQUIRE(settle_periods >= 0.0,
                 "settle period count must be non-negative");
  HTMPLL_TRACE_SPAN("probe.warm_settle");
  TransientConfig cfg;
  cfg.record = false;
  PllTransientSim sim(params, {}, cfg);
  sim.run_periods(settle_periods);
  return sim.checkpoint();
}

namespace {

/// Shared probe core: runs the modulated simulation to steady state and
/// returns the bin ratio between the theta record at omega_out and the
/// theta_ref record at omega_m.  With a warm checkpoint the full settle
/// is replaced by restoring the settled unmodulated state and a short
/// re-settle under modulation.
TransferMeasurement run_probe(const PllParameters& params, double omega_m,
                              double omega_out, double min_sample_rate,
                              const ProbeOptions& opts,
                              const TransientCheckpoint* warm) {
  HTMPLL_TRACE_SPAN("probe.point");
  probe_point_counter().add();
  HTMPLL_REQUIRE(omega_m > 0.0 && std::isfinite(omega_m),
                 "modulation frequency must be positive and finite");
  validate_probe_options(opts);

  const double t_period = params.period();
  const double tm = 2.0 * std::numbers::pi / omega_m;

  ReferenceModulation mod;
  mod.amplitude = opts.amplitude_fraction * t_period;
  mod.omega = omega_m;
  mod.phase = 0.0;

  TransientConfig cfg;
  // Never sample slower than T/8 (ripple and sidebands near multiples
  // of w0 must not alias near the measurement bins), and honor any
  // higher rate required to resolve omega_out.
  cfg.sample_interval =
      std::min({tm / static_cast<double>(opts.samples_per_period),
                t_period / 8.0,
                2.0 * std::numbers::pi / min_sample_rate});
  cfg.record = false;

  PllTransientSim sim(params, mod, cfg);
  double settle;
  if (warm != nullptr) {
    sim.restore(*warm);
    settle = sim.time() + std::max(opts.warm_resettle_periods * t_period,
                                   4.0 * tm);
  } else {
    settle = std::max(opts.settle_periods * t_period, 4.0 * tm);
  }
  {
    HTMPLL_TRACE_SPAN("probe.settle");
    sim.run_until(settle);
  }

  sim.set_recording(true);
  sim.clear_samples();
  {
    HTMPLL_TRACE_SPAN("probe.measure");
    sim.run_until(settle + static_cast<double>(opts.measure_periods) * tm);
  }

  TransferMeasurement out;
  out.value = single_bin_ratio(sim.sample_times(), sim.theta_samples(),
                               omega_out, sim.theta_ref_samples(), omega_m);
  out.simulated_time = sim.time();
  out.events = sim.event_count();
  return out;
}

TransferMeasurement baseband_probe(const PllParameters& params,
                                   double omega_m, const ProbeOptions& opts,
                                   const TransientCheckpoint* warm) {
  return run_probe(params, omega_m, omega_m, 16.0 * omega_m, opts, warm);
}

TransferMeasurement band_probe(const PllParameters& params, int band,
                               double omega_m, const ProbeOptions& opts,
                               const TransientCheckpoint* warm) {
  HTMPLL_REQUIRE(band >= -8 && band <= 8,
                 "band transfer probe supports |n| <= 8");
  const double w0 = params.w0;
  const double omega_out =
      static_cast<double>(band) * w0 + omega_m;
  // The output component may sit at a negative frequency (n < 0); a real
  // record's bin there is the conjugate of the bin at |omega|.  We
  // measure at |omega| and conjugate back -- the magnitude matches
  // |H_{n,0}| exactly; the phase is only meaningful for n >= 0 (the
  // stimulus bin is not conjugated).
  const double omega_abs = std::abs(omega_out);
  HTMPLL_REQUIRE(omega_abs > 1e-12 * w0,
                 "output component sits at DC; choose another w_m");
  // Sample fast enough that omega_abs is well below Nyquist.
  const double min_rate = 4.0 * (omega_abs + w0);
  TransferMeasurement m = run_probe(params, omega_m, omega_abs, min_rate,
                                    opts, warm);
  if (omega_out < 0.0) m.value = std::conj(m.value);
  return m;
}

/// Settles the shared warm-start checkpoint when requested (and only
/// then -- the cold batched path must not simulate anything extra).
struct WarmState {
  TransientCheckpoint checkpoint;
  const TransientCheckpoint* ptr = nullptr;

  WarmState(const PllParameters& params, const ProbeOptions& opts) {
    if (opts.warm_start) {
      checkpoint = make_settled_checkpoint(params, opts.settle_periods);
      ptr = &checkpoint;
    }
  }
};

}  // namespace

TransferMeasurement measure_baseband_transfer(const PllParameters& params,
                                              double omega_m,
                                              const ProbeOptions& opts) {
  validate_probe_options(opts);
  const WarmState warm(params, opts);
  return baseband_probe(params, omega_m, opts, warm.ptr);
}

TransferMeasurement measure_band_transfer(const PllParameters& params,
                                          int band, double omega_m,
                                          const ProbeOptions& opts) {
  validate_probe_options(opts);
  const WarmState warm(params, opts);
  return band_probe(params, band, omega_m, opts, warm.ptr);
}

std::vector<TransferMeasurement> measure_baseband_transfer_many(
    const PllParameters& params, const std::vector<double>& omegas,
    const ProbeOptions& opts) {
  return measure_baseband_transfer_many(params, omegas, opts,
                                        ThreadPool::global());
}

std::vector<TransferMeasurement> measure_baseband_transfer_many(
    const PllParameters& params, const std::vector<double>& omegas,
    const ProbeOptions& opts, ThreadPool& pool) {
  validate_probe_options(opts);
  const WarmState warm(params, opts);
  std::vector<TransferMeasurement> out(omegas.size());
  // Grain 1: each probe is a full transient simulation, far heavier
  // than the dispatch overhead.
  pool.parallel_for(omegas.size(), 1, [&](std::size_t i) {
    out[i] = baseband_probe(params, omegas[i], opts, warm.ptr);
  });
  return out;
}

std::vector<TransferMeasurement> measure_band_transfer_many(
    const PllParameters& params, const std::vector<BandProbePoint>& points,
    const ProbeOptions& opts) {
  return measure_band_transfer_many(params, points, opts,
                                    ThreadPool::global());
}

std::vector<TransferMeasurement> measure_band_transfer_many(
    const PllParameters& params, const std::vector<BandProbePoint>& points,
    const ProbeOptions& opts, ThreadPool& pool) {
  validate_probe_options(opts);
  const WarmState warm(params, opts);
  std::vector<TransferMeasurement> out(points.size());
  pool.parallel_for(points.size(), 1, [&](std::size_t i) {
    out[i] = band_probe(params, points[i].band, points[i].omega_m, opts,
                        warm.ptr);
  });
  return out;
}

}  // namespace htmpll
