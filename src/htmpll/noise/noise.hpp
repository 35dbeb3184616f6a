// Phase-noise transfer analysis through the time-varying PLL model.
//
// This is the natural extension of the paper's machinery: once the
// closed-loop HTM is known in the rank-one form, the transfer of noise
// from every injection point to the output phase follows from the same
// Sherman-Morrison algebra, *including the folding of noise sidebands*
// across reference harmonics that an LTI analysis misses:
//
//  reference phase noise:  theta = (V~ l^T / (1+lambda)) theta_ref,n
//  VCO phase noise:        theta = (I + G)^{-1} theta_vco,n
//                                = (I - V~ l^T/(1+lambda)) theta_vco,n
//  charge-pump current noise (continuous, injected at the filter input):
//                          theta = (I + G)^{-1} D i_n,
//                          D = H_VCO H_LF (diagonal for a TI VCO)
//
// Output baseband PSD: S_out(w) = sum_m |T_{0,m}(jw)|^2 S_in(|w + m w0|).
#pragma once

#include <functional>

#include "htmpll/core/sampling_pll.hpp"

namespace htmpll {

/// One-sided phase PSD model S(w) = white + flicker/w + walk/w^2
/// (w in rad/s; units follow the caller's phase convention).  The
/// coefficients must be finite and non-negative; evaluating one that is
/// not throws std::invalid_argument, as does evaluating at DC.
struct PowerLawPsd {
  double white = 0.0;
  double flicker = 0.0;
  double walk = 0.0;

  double operator()(double w) const;
};

using PsdFunction = std::function<double(double)>;

class NoiseAnalysis {
 public:
  /// `fold_harmonics` bounds the |m| range of the sideband-folding sums;
  /// the per-harmonic transfers decay like 1/(m w0) or faster, so modest
  /// values converge quickly.  Must be >= 0; zero keeps only the m = 0
  /// (unfolded) term of every sum.
  explicit NoiseAnalysis(const SamplingPllModel& model,
                         int fold_harmonics = 16);

  int fold_harmonics() const { return fold_; }

  // --- per-harmonic transfer factors at baseband output, band m input ---

  /// Reference noise entering through the sampler: H_{0,m}(jw)
  /// = V~_0/(1+lambda) for every m (rank-one aliasing).
  cplx reference_transfer(double w) const;

  /// VCO phase noise: T_{0,m} = delta_{0,m} - V~_0/(1+lambda).
  cplx vco_transfer(int m, double w) const;

  /// Charge-pump current noise (amperes into the filter impedance),
  /// general LPTV form:
  /// T_{0,m} = Z(s_m) [ v_{-m}/s
  ///                   - (V~_0/(1+lambda)) sum_k v_k/(s + j(m+k) w0) ],
  /// reducing to v0 Z(s_m)/s_m (delta_{0,m} - H_00) for a TI VCO --
  /// validated against the simulator with injected held-white noise
  /// (test_noise_injection).
  cplx charge_pump_transfer(int m, double w) const;

  // --- folded output PSDs at baseband ---

  double output_psd_from_reference(double w, const PsdFunction& s_ref) const;
  double output_psd_from_vco(double w, const PsdFunction& s_vco) const;
  double output_psd_from_charge_pump(double w,
                                     const PsdFunction& s_icp) const;

  /// Total output PSD from all three sources (assumed independent).
  double output_psd_total(double w, const PsdFunction& s_ref,
                          const PsdFunction& s_vco,
                          const PsdFunction& s_icp) const;

  /// RMS phase over [w_lo, w_hi]: sqrt((1/pi) * integral of S_out dw)
  /// via log-trapezoid quadrature on `points` samples.
  double integrated_rms(const std::function<double(double)>& s_out,
                        double w_lo, double w_hi,
                        std::size_t points = 400) const;

  // --- batched output-PSD grids (eval-plan backed) ---
  //
  // Grid variants of the pointwise PSDs above.  The shared transfer
  // planes -- H_00, the tracking factor V~_0/(1+lambda), and the
  // per-fold-band filter-impedance columns Z(s + j m w0) -- are
  // evaluated ONCE over the whole grid through the model's compiled
  // eval plan (one exp(-sT) plane per block, SIMD batch kernels
  // underneath) and reused across all 2*fold_harmonics+1 fold
  // harmonics, instead of re-deriving lambda and the folding sum per
  // (harmonic, frequency) pair like the pointwise calls.
  //
  // result[i] agrees with the pointwise call at w_grid[i] to <= 1e-10
  // relative error.  Grids must be non-empty and PSD functions
  // non-null (std::invalid_argument otherwise).  Counter:
  // `noise.fold_terms` ((harmonic, point) pairs folded).

  std::vector<double> output_psd_from_reference_grid(
      const std::vector<double>& w_grid, const PsdFunction& s_ref) const;
  std::vector<double> output_psd_from_vco_grid(
      const std::vector<double>& w_grid, const PsdFunction& s_vco) const;
  std::vector<double> output_psd_from_charge_pump_grid(
      const std::vector<double>& w_grid, const PsdFunction& s_icp) const;

  /// Total output PSD from all three sources over a grid; the H_00 and
  /// tracking planes are shared between the sources.
  std::vector<double> output_psd_grid(const std::vector<double>& w_grid,
                                      const PsdFunction& s_ref,
                                      const PsdFunction& s_vco,
                                      const PsdFunction& s_icp) const;

  /// Noise-PSD map around the first `max_harmonic` reference spurs:
  /// row k-1 holds the total output PSD at w = k w0 + offsets[i], so a
  /// plotter gets the folded-noise skirt under every spur.  All
  /// max_harmonic * offsets.size() points are evaluated as ONE batched
  /// grid.
  std::vector<std::vector<double>> spur_map_grid(
      const std::vector<double>& offsets, int max_harmonic,
      const PsdFunction& s_ref, const PsdFunction& s_vco,
      const PsdFunction& s_icp) const;

  /// RMS output phase over [w_lo, w_hi] (paper time units: seconds of
  /// jitter when the input PSDs describe absolute jitter):
  /// sqrt((1/pi) * integral of S_out dw) on a `points`-sample log
  /// grid, with S_out evaluated through one output_psd_grid call
  /// instead of the pointwise integrated_rms functional.
  double integrated_jitter(double w_lo, double w_hi,
                           const PsdFunction& s_ref,
                           const PsdFunction& s_vco,
                           const PsdFunction& s_icp,
                           std::size_t points = 400) const;

 private:
  /// charge_pump_transfer with the m-independent tracking factor
  /// V~_0/(1+lambda) supplied by the caller, so folding loops evaluate
  /// it once instead of per harmonic.
  cplx charge_pump_transfer_impl(int m, double w, cplx tracking) const;

  // Accumulating per-source grid kernels behind the public grid APIs;
  // `h00` / `tracking` are the shared planes at s = j w_grid[i].
  void psd_reference_into(const CVector& h00,
                          const std::vector<double>& w_grid,
                          const PsdFunction& s_ref,
                          std::vector<double>& out) const;
  void psd_vco_into(const CVector& h00, const std::vector<double>& w_grid,
                    const PsdFunction& s_vco,
                    std::vector<double>& out) const;
  void psd_charge_pump_into(const CVector& tracking,
                            const std::vector<double>& w_grid,
                            const PsdFunction& s_icp,
                            std::vector<double>& out) const;

  const SamplingPllModel& model_;
  int fold_;
};

}  // namespace htmpll
