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
/// (w in rad/s; units follow the caller's phase convention) -- the PSD
/// type of every noise source below.  The coefficients must be finite
/// and non-negative; evaluating one that is not throws
/// std::invalid_argument, as does evaluating at DC or passing one to a
/// NoiseAnalysis call.  PowerLawPsd{} is a silent source.
struct PowerLawPsd {
  double white = 0.0;
  double flicker = 0.0;
  double walk = 0.0;

  /// S(|w|), computed as at_reciprocal(1/|w|).
  double operator()(double w) const;

  /// S at |w| = 1/r, unchecked: white + flicker r + walk r^2.  The one
  /// expression of operator() and of the noise fold kernel's lanes,
  /// which pass in a reciprocal they already hold.
  double at_reciprocal(double r) const {
    return white + flicker * r + walk * (r * r);
  }
};

class NoiseAnalysis {
 public:
  /// `fold_harmonics` bounds the |m| range of the sideband-folding sums;
  /// the per-harmonic transfers decay like 1/(m w0) or faster, so modest
  /// values converge quickly.  Must be >= 0; zero keeps only the m = 0
  /// (unfolded) term of every sum.
  explicit NoiseAnalysis(const SamplingPllModel& model,
                         int fold_harmonics = 16);
  /// The analysis keeps a reference to the model, so a temporary one
  /// would dangle: binding one does not compile.
  NoiseAnalysis(const SamplingPllModel&& model,
                int fold_harmonics = 16) = delete;

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

  double output_psd_from_reference(double w, const PowerLawPsd& s_ref) const;
  double output_psd_from_vco(double w, const PowerLawPsd& s_vco) const;
  double output_psd_from_charge_pump(double w,
                                     const PowerLawPsd& s_icp) const;

  /// Total output PSD from all three sources (assumed independent).
  double output_psd_total(double w, const PowerLawPsd& s_ref,
                          const PowerLawPsd& s_vco,
                          const PowerLawPsd& s_icp) const;

  /// RMS phase over [w_lo, w_hi]: sqrt((1/pi) * integral of S_out dw)
  /// via log-trapezoid quadrature on `points` samples.
  double integrated_rms(const std::function<double(double)>& s_out,
                        double w_lo, double w_hi,
                        std::size_t points = 400) const;

  // --- batched output-PSD grid (eval-plan backed) ---
  //
  // The grid variant of output_psd_total.  The H_00 plane comes from
  // the model's compiled eval plan, once per grid, and serves every
  // source: the charge-pump tracking factor V~_0/(1+lambda) is the
  // band-0 closed loop, i.e. H_00 itself.  One point-blocked kernel then
  // folds all three sources: per block of 64 points held in stack
  // arrays it adds the reference term, the VCO terms and the
  // charge-pump terms for m = -fold_harmonics..fold_harmonics, each
  // harmonic costing one Horner pass per filter polynomial for
  // |Z(s + j m w0)|^2 and one fused loop for the ISF bracket and the
  // PSD.  Each point runs the operations of the pointwise fold in its
  // order, and the AVX2 build of the kernel (selected with the batch
  // kernels' ISA) gives the same bits as the baseline one.  A source
  // set to PowerLawPsd{} adds zeros.
  //
  // result[i] agrees with output_psd_total at w_grid[i] to <= 1e-10
  // relative error.  The grid must be non-empty and every PSD valid
  // (std::invalid_argument otherwise).  Counter: `noise.fold_terms`
  // ((harmonic, point) pairs folded, VCO and charge pump).
  std::vector<double> output_psd_grid(const std::vector<double>& w_grid,
                                      const PowerLawPsd& s_ref,
                                      const PowerLawPsd& s_vco,
                                      const PowerLawPsd& s_icp) const;

  /// RMS output phase over [w_lo, w_hi] (paper time units: seconds of
  /// jitter when the input PSDs describe absolute jitter):
  /// sqrt((1/pi) * integral of S_out dw) on a `points`-sample log
  /// grid, with S_out evaluated through one output_psd_grid call
  /// instead of the pointwise integrated_rms functional.
  double integrated_jitter(double w_lo, double w_hi,
                           const PowerLawPsd& s_ref,
                           const PowerLawPsd& s_vco,
                           const PowerLawPsd& s_icp,
                           std::size_t points = 400) const;

 private:
  /// charge_pump_transfer with the m-independent tracking factor
  /// V~_0/(1+lambda) supplied by the caller, so folding loops evaluate
  /// it once instead of per harmonic.
  cplx charge_pump_transfer_impl(int m, double w, cplx tracking) const;

  const SamplingPllModel& model_;
  int fold_;
};

}  // namespace htmpll
