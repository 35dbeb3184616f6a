// Small-signal transfer-function measurement on the transient simulator.
//
// Applies a sinusoidal phase modulation to the reference (eq. 14), lets
// the loop settle, then takes the Hann-windowed bins of the VCO phase
// theta and of theta_ref over a whole number of modulation periods.
// Both bins are exact: theta's comes in closed form from the held
// charge-pump current (ThetaBin), theta_ref's from the modulation, so no
// record is sampled and no sideband folds onto the bin.  Their ratio is
// the measured closed-loop transfer H_{0,0}(j w_m) -- the marks on the
// paper's Fig. 6 -- or, at n w0 + w_m, the sideband H_{n,0}(j w_m).
#pragma once

#include <cstddef>

#include "htmpll/linalg/matrix.hpp"
#include "htmpll/parallel/thread_pool.hpp"
#include "htmpll/timedomain/pll_sim.hpp"

namespace htmpll {

struct ProbeOptions {
  /// theta_ref modulation amplitude as a fraction of T (small-signal).
  double amplitude_fraction = 1e-3;
  /// Reference periods simulated from rest (recording off) before
  /// measuring; the settle always spans at least four modulation
  /// periods.
  double settle_periods = 300.0;
  /// Integer number of modulation periods in the measurement window.
  /// A baseband probe needs >= 2: with one period the Hann window's
  /// lower frequency w_m - 2 pi / width sits at DC, which the bin
  /// rejects.
  int measure_periods = 24;
};

/// Throws std::invalid_argument unless amplitude_fraction > 0,
/// settle_periods >= 0 (finite) and measure_periods >= 1.
/// Called by every probe entry point.
void validate_probe_options(const ProbeOptions& opts);

struct TransferMeasurement {
  cplx value;              ///< measured H_{0,0}(j w_m) (H_{n,0}: band probe)
  double simulated_time;   ///< total simulated seconds
  std::size_t events;      ///< PFD edge events processed
};

/// Measures the closed-loop baseband phase transfer at modulation
/// frequency `omega_m` (rad/s, 0 < omega_m < w0/2 recommended).
TransferMeasurement measure_baseband_transfer(const PllParameters& params,
                                              double omega_m,
                                              const ProbeOptions& opts = {});

/// Measures H_{n,0}(j w_m), magnitude and phase, for band index n: the
/// output component at n w0 + w_m (a reference "spur" for n != 0)
/// produced by baseband reference modulation at w_m.  This exercises the
/// off-diagonal HTM elements of Fig. 2 -- "signal transfers to other
/// frequency bands can be studied as well by considering the other
/// elements of H(s)".  A negative n w0 + w_m is measured there directly.
/// Requires |band| <= 8: the exact bin has no sampling rate to limit
/// it, so this is only an input range check on the band index.  Throws
/// std::invalid_argument when n w0 + w_m, or it -+ the bin spacing
/// 2 pi / (measure_periods T_m), lies within 0.01 bins of DC (see
/// ThetaBin).
TransferMeasurement measure_band_transfer(const PllParameters& params,
                                          int band, double omega_m,
                                          const ProbeOptions& opts = {});

/// Batched probe: one transient simulation per entry, distributed over
/// the given thread pool (global pool by default).  Each simulation is
/// independent, so results are identical to calling
/// measure_baseband_transfer point by point, regardless of thread
/// count.  out[i] corresponds to omegas[i].
std::vector<TransferMeasurement> measure_baseband_transfer_many(
    const PllParameters& params, const std::vector<double>& omegas,
    const ProbeOptions& opts = {}, ThreadPool& pool = ThreadPool::global());

/// One (band, omega_m) request for measure_band_transfer_many.
struct BandProbePoint {
  int band;
  double omega_m;
};

/// Batched band-transfer probe; same determinism as
/// measure_baseband_transfer_many.
std::vector<TransferMeasurement> measure_band_transfer_many(
    const PllParameters& params, const std::vector<BandProbePoint>& points,
    const ProbeOptions& opts = {}, ThreadPool& pool = ThreadPool::global());

/// Windowed single-bin DFT ratio of two equally-sampled records: the
/// LPTV probe's estimator, and the oracle the exact bins are tested
/// against.  Returns sum(w_k y_k e^{-j wy t_k}) /
/// sum(w_k x_k e^{-j wx t_k}) with a Hann window; both frequencies must
/// be finite.
cplx single_bin_ratio(const std::vector<double>& t,
                      const std::vector<double>& y, double omega_y,
                      const std::vector<double>& x, double omega_x);

/// Convenience overload with omega_y == omega_x.
cplx single_bin_transfer(const std::vector<double>& t,
                         const std::vector<double>& y,
                         const std::vector<double>& x, double omega);

}  // namespace htmpll
