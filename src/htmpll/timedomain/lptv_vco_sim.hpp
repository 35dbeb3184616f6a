// Transient simulation of the PLL with a *time-varying* VCO.
//
// The paper's VCO model (eqs. 22-23) is dtheta/dt = v(t + theta) u(t)
// with v the T-periodic impulse sensitivity function (ISF).  The HTM
// model approximates v(t + theta) ~ v(t) for small excursions (eq. 24);
// this simulator integrates the *unapproximated* equation, so comparing
// it against SamplingPllModel with a non-trivial ISF validates the
// LPTV branch of the theory end-to-end.
//
// Unlike PllTransientSim (which is exact because the TI loop is linear
// between events), the ISF-modulated loop has a genuinely time-varying
// right-hand side, so this class integrates [filter state; theta] with
// classic fixed-substep RK4 -- a faithful C++ stand-in for the paper's
// Matlab/Simulink time-marching.
#pragma once

#include <cstdint>
#include <vector>

#include "htmpll/core/builders.hpp"
#include "htmpll/lti/loop_filter.hpp"
#include "htmpll/lti/state_space.hpp"
#include "htmpll/timedomain/pfd.hpp"
#include "htmpll/timedomain/pll_sim.hpp"
#include "htmpll/timedomain/probe.hpp"

namespace htmpll {

/// Real periodic ISF v(t) = kvco * sum_k isf_k e^{j k w0 t}.  Requires a
/// conjugate-symmetric coefficient set (real waveform), a finite kvco
/// and a finite w0 > 0.
class IsfWaveform {
 public:
  IsfWaveform(HarmonicCoefficients isf, double kvco, double w0);

  double operator()(double t) const;

 private:
  HarmonicCoefficients isf_;
  double kvco_;
  double w0_;
};

struct LptvTransientConfig {
  int substeps_per_period = 64;  ///< RK4 steps per reference period
  /// Recording period; 0 selects T/8, negative or non-finite rejected.
  double sample_interval = 0.0;
  bool record = true;
};

/// The loop of `params` with the VCO ISF `isf`, whose waveform is
/// IsfWaveform(isf, params.kvco, params.w0) -- the same ISF coefficients
/// SamplingPllModel takes.
class LptvPllTransientSim {
 public:
  LptvPllTransientSim(const PllParameters& params, HarmonicCoefficients isf,
                      ReferenceModulation mod = {},
                      LptvTransientConfig cfg = {});

  double period() const { return t_period_; }
  double time() const { return t_; }
  double theta() const { return theta_; }

  void run_until(double t_end);
  void run_periods(double n);

  const std::vector<double>& sample_times() const { return sample_t_; }
  const std::vector<double>& theta_samples() const { return sample_theta_; }
  const std::vector<double>& theta_ref_samples() const {
    return sample_theta_ref_;
  }
  void clear_samples();
  void set_recording(bool on) { cfg_.record = on; }

  std::size_t event_count() const { return events_; }

 private:
  struct Derivative {
    RVector dx;
    double dtheta;
  };
  Derivative rhs(double t, const RVector& x, double theta,
                 double current) const;
  void rk4_step(double t, double h, double current);
  double theta_ref(double t) const { return mod_.value(t); }
  void maybe_record(double t_prev, double theta_prev, double t);
  bool t_ranges_hit_ref(double t_ref, double t_end, double eps) const;

  PllParameters params_;
  IsfWaveform isf_;
  ReferenceModulation mod_;
  LptvTransientConfig cfg_;
  double t_period_;
  double icp_;
  StateSpace filter_;
  ReferenceEdges ref_edges_;

  TriStatePfd pfd_;
  std::int64_t n_ref_ = 1;
  std::int64_t n_vco_ = 1;
  double t_ = 0.0;
  RVector x_;
  double theta_ = 0.0;
  std::size_t events_ = 0;

  std::int64_t next_sample_ = 1;
  std::vector<double> sample_t_;
  std::vector<double> sample_theta_;
  std::vector<double> sample_theta_ref_;
};

/// Small-signal baseband transfer measured on the LPTV simulator: the
/// settle and window of measure_baseband_transfer, but the bins come
/// from single_bin_transfer over theta sampled every
/// min(T_m / 16, T / 8.618...), a rate no multiple of w0 -- RK4 has no
/// closed-form bin.
TransferMeasurement measure_baseband_transfer_lptv(
    const PllParameters& params, const HarmonicCoefficients& isf,
    double omega_m, const ProbeOptions& opts = {});

}  // namespace htmpll
