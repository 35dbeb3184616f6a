// Sample-and-hold phase-detector PLL simulator.
//
// Validation substrate for the ZOH branch of the generalized PFD model
// (PfdShape::kZeroOrderHold): at every reference edge the detector
// samples the phase error e(mT) = theta_ref - theta and the charge pump
// sources the *held* current Icp * e(mT) / T until the next edge -- the
// same charge per cycle as the pulse-width charge pump, but delivered as
// a boxcar instead of a narrow pulse.  Between edges everything is LTI
// with constant input, so propagation is exact (matrix exponential), as
// in PllTransientSim.
#pragma once

#include <cstdint>
#include <vector>

#include "htmpll/lti/loop_filter.hpp"
#include "htmpll/timedomain/loop_filter_sim.hpp"
#include "htmpll/timedomain/pll_sim.hpp"
#include "htmpll/timedomain/probe.hpp"

namespace htmpll {

class SampleHoldPllSim {
 public:
  explicit SampleHoldPllSim(const PllParameters& params,
                            ReferenceModulation mod = {},
                            TransientConfig cfg = {});

  double period() const { return t_period_; }
  double time() const { return t_; }
  /// Augmented integrator state [x_filter; theta] at the current time,
  /// as PllTransientSim::state().
  const RVector& state() const { return aug_.state(); }
  /// Current VCO phase excursion theta(t) in seconds.
  double theta() const;
  double held_current() const { return current_; }

  void run_until(double t_end);
  void run_periods(double n);

  const std::vector<double>& sample_times() const { return samples_.t; }
  const std::vector<double>& theta_samples() const { return samples_.theta; }
  const std::vector<double>& theta_ref_samples() const {
    return samples_.theta_ref;
  }
  void clear_samples();
  void set_recording(bool on) { cfg_.record = on; }

  /// Runs the window [time(), time() + width] and returns theta's exact
  /// Hann-windowed bin at `omega` (see PllTransientSim::measure_theta_bin).
  cplx measure_theta_bin(double omega, double width);

  std::size_t event_count() const { return events_; }
  /// True when propagator builds use the spectral (modal) path.
  bool spectral_propagators() const { return aug_.spectral_propagators(); }

 private:
  /// Its segments span whole periods, so their midpoints sit half a
  /// period off the reference grid: a bin takes their window phasors
  /// and half-angle factors from the small-angle series only while
  /// |nu| T / 2 <= detail::kSmallAngleMax, and from libm above.
  void record_range(double t_begin, double t_end);

  PllParameters params_;
  ReferenceModulation mod_;
  TransientConfig cfg_;
  double t_period_;
  double icp_;

  PiecewiseExactIntegrator aug_;
  ReferenceEdges ref_edges_;

  std::int64_t n_ref_ = 1;
  double t_ = 0.0;
  double current_ = 0.0;
  std::size_t events_ = 0;

  std::int64_t next_sample_ = 1;
  UniformSamples samples_;
  ThetaBin* bin_ = nullptr;  ///< open measure_theta_bin window, if any
};

/// Small-signal baseband transfer measured on the sample-and-hold loop:
/// measure_baseband_transfer's probe, with this simulator in place of
/// PllTransientSim.
TransferMeasurement measure_baseband_transfer_sample_hold(
    const PllParameters& params, double omega_m,
    const ProbeOptions& opts = {});

}  // namespace htmpll
