#include "htmpll/timedomain/probe.hpp"

#include <cmath>
#include <numbers>

#include "htmpll/obs/trace.hpp"
#include "htmpll/parallel/thread_pool.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll {

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
  // for bit.  The LPTV probe uses one frequency for both bins.
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
/// returns the ratio of theta's exact Hann-windowed bin at omega_out to
/// theta_ref's at omega_m over the same window.  With a warm checkpoint
/// the full settle is replaced by restoring the settled unmodulated
/// state and a short re-settle under modulation.
TransferMeasurement run_probe(const PllParameters& params, double omega_m,
                              double omega_out, const ProbeOptions& opts,
                              const TransientCheckpoint* warm) {
  HTMPLL_TRACE_SPAN("probe.point");
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

  const double t0 = sim.time();
  const double width = static_cast<double>(opts.measure_periods) * tm;
  cplx theta_bin;
  {
    HTMPLL_TRACE_SPAN("probe.measure");
    theta_bin = sim.measure_theta_bin(omega_out, width);
  }

  TransferMeasurement out;
  out.value = theta_bin / mod.hann_bin(omega_m, t0, width);
  out.simulated_time = sim.time();
  out.events = sim.event_count();
  return out;
}

TransferMeasurement baseband_probe(const PllParameters& params,
                                   double omega_m, const ProbeOptions& opts,
                                   const TransientCheckpoint* warm) {
  return run_probe(params, omega_m, omega_m, opts, warm);
}

TransferMeasurement band_probe(const PllParameters& params, int band,
                               double omega_m, const ProbeOptions& opts,
                               const TransientCheckpoint* warm) {
  HTMPLL_REQUIRE(band >= -8 && band <= 8,
                 "band transfer probe supports |n| <= 8");
  // The output component may sit at a negative frequency (n < 0); the
  // exact bin measures it there directly, phase included.
  const double omega_out = static_cast<double>(band) * params.w0 + omega_m;
  return run_probe(params, omega_m, omega_out, opts, warm);
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
