#include "htmpll/noise/noise.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>

#include "htmpll/linalg/batch_kernels.hpp"
#include "htmpll/noise/noise_detail.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/obs/trace.hpp"
#include "htmpll/parallel/sweep.hpp"
#include "htmpll/util/check.hpp"
#include "htmpll/util/grid.hpp"

// The fold kernel is compiled twice: for the baseline ISA and, when the
// AVX2 kernels are built, under target("avx2").  FMA stays out of that
// target: C++ lets GCC contract a*b + c, and a fused multiply-add would
// change the bits of the baseline build.
#if defined(HTMPLL_SIMD_COMPILED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define HTMPLL_FOLD_AVX2 1
#else
#define HTMPLL_FOLD_AVX2 0
#endif

namespace htmpll {

namespace {

obs::Counter& fold_terms_counter() {
  static obs::Counter& ctr = obs::counter("noise.fold_terms");
  return ctr;
}

void require_grid(const std::vector<double>& w_grid) {
  HTMPLL_REQUIRE(!w_grid.empty(), "PSD grid must hold at least one point");
}

void require_power_law(const PowerLawPsd& p) {
  const auto ok = [](double c) { return std::isfinite(c) && c >= 0.0; };
  HTMPLL_REQUIRE(ok(p.white) && ok(p.flicker) && ok(p.walk),
                 "power-law PSD coefficients must be finite and "
                 "non-negative");
}

bool all_real(const CVector& c) {
  for (const cplx& v : c) {
    if (v.imag() != 0.0) return false;
  }
  return !c.empty();
}

// Split ascending real coefficients into even/odd powers so that
// P(j x) = E(-x^2) + j x O(-x^2) with E(y) = sum_k c_{2k} y^k and
// O(y) = sum_k c_{2k+1} y^k -- two half-degree real Horner chains
// instead of one complex one.
void even_odd_split(const CVector& c, std::vector<double>& even,
                    std::vector<double>& odd) {
  even.clear();
  odd.clear();
  for (std::size_t k = 0; k < c.size(); ++k) {
    (k % 2 == 0 ? even : odd).push_back(c[k].real());
  }
}

// ---- the point-blocked fold kernel ------------------------------------
//
// The grid is folded in blocks of kBlock points whose planes live in
// stack arrays.  Per block the kernel adds the reference term, then the
// VCO terms for m = -F..F, then the charge-pump terms for m = -F..F: the
// order in which the per-point sums add them.  Every PSD value is
// PowerLawPsd::at_reciprocal of a reciprocal equal to the per-point
// call's 1/|w + m w0|, so it is that call's value bit for bit.  Loops
// run over all kBlock lanes so they vectorize; a short last block
// repeats its last point in the spare lanes and stores only the real
// ones.  The reference term, the scaling-safe |Z|^2 fallback and
// batch_rational see only the real lanes.

constexpr std::size_t kBlock = 64;

// The kernel's helpers inline into both builds: one compiled out of
// line would run baseline-ISA code inside the AVX2 build.
#define HTMPLL_FOLD_INLINE inline __attribute__((always_inline))

/// A nonzero ISF tap v_k = a + j b.
struct IsfTap {
  int k;
  double a, b;
};

/// What the kernel reads that no block changes.
struct FoldPlan {
  const double* w = nullptr;
  const cplx* h00 = nullptr;  ///< also the tracking factor V~_0/(1+lambda)
  PowerLawPsd ref, vco, icp;
  double w0 = 0.0;
  int fold = 0;
  // Charge pump: current noise sees Z = loop_filter_tf/Icp, entering
  // only through |Z(s_m)|^2 = |N(jx)|^2/|D(jx)|^2 (even/odd Horner
  // chains for real coefficients, batch_rational otherwise).
  const RationalFunction* hlf = nullptr;
  bool real_tf = false;
  std::vector<double> num_even, num_odd, den_even, den_odd;
  double inv_icp2 = 0.0;
  std::vector<IsfTap> taps;
  /// Components of v_{-m}/s = (Im v_{-m} - j Re v_{-m})/w, per m + fold.
  std::vector<double> vm_re, vm_im;
  int bmax = 0;  ///< fold + ISF max harmonic: the reciprocal-row range
};

/// Scratch of one call for an ISF with other than one tap: per block,
/// the tap planes g_k = (V~_0/(1+lambda)) (-j v_k) and the reciprocal
/// rows 1/(w + b w0), b = -bmax..bmax.
std::size_t scratch_size(const FoldPlan& p) {
  if (p.taps.size() == 1) return 0;
  return (2 * p.taps.size() + 2 * static_cast<std::size_t>(p.bmax) + 1) *
         kBlock;
}

/// Shift of fold band b, written as the per-point sums write it.
HTMPLL_FOLD_INLINE double band_shift(int b, double w0) {
  return static_cast<double>(b) * w0;
}

/// acc[i] += term[i] off DC.  The per-point sums skip a DC term (x ==
/// 0); acc is never -0.0, so adding +0.0 there is the skip, bit for
/// bit.  The terms come in stored: selected where they are computed,
/// their divisions would sink into the branch and keep the loop from
/// vectorizing.
HTMPLL_FOLD_INLINE void add_off_dc(const double* x, const double* term,
                                   double* acc) {
  for (std::size_t i = 0; i < kBlock; ++i) {
    const double t = term[i];
    acc[i] += x[i] != 0.0 ? t : 0.0;
  }
}

/// dst = c(y) by Horner, coefficient-outer over the block.
HTMPLL_FOLD_INLINE void horner_block(const std::vector<double>& c,
                                     const double* y, double* dst) {
  const double top = c.empty() ? 0.0 : c.back();
  for (std::size_t i = 0; i < kBlock; ++i) dst[i] = top;
  for (std::size_t k = c.size() > 0 ? c.size() - 1 : 0; k-- > 0;) {
    const double ck = c[k];
    for (std::size_t i = 0; i < kBlock; ++i) dst[i] = dst[i] * y[i] + ck;
  }
}

/// Everything a block folds: its points, padded to kBlock lanes.
struct Block {
  std::size_t i0, nb;
  double w[kBlock];
};

/// The VCO term of fold band m with transfer gain |T_{0,m}|^2 = gain.
/// The PSD takes r = 1/|x|, one division per term; DC lanes read inf or
/// NaN there and the fold skips them.
HTMPLL_FOLD_INLINE void vco_band(int m, const FoldPlan& p, const Block& b,
                                 PowerLawPsd psd, const double* gain,
                                 double* acc) {
  const double shift = band_shift(m, p.w0);
  double x[kBlock], term[kBlock];
  for (std::size_t i = 0; i < kBlock; ++i) {
    x[i] = b.w[i] + shift;
    term[i] = gain[i] * psd.at_reciprocal(1.0 / std::abs(x[i]));
  }
  add_off_dc(x, term, acc);
}

/// VCO noise: |delta_{m0} - H_00|^2 is |1 - H_00|^2 at m = 0 and
/// |H_00|^2 on every other band (each band gets its own loop, so no
/// per-lane select between the two planes).
HTMPLL_FOLD_INLINE void fold_vco(const FoldPlan& p, const Block& b,
                                 PowerLawPsd psd, const double* g_base,
                                 const double* h2, double* acc) {
  for (int m = -p.fold; m < 0; ++m) vco_band(m, p, b, psd, h2, acc);
  vco_band(0, p, b, psd, g_base, acc);
  for (int m = 1; m <= p.fold; ++m) vco_band(m, p, b, psd, h2, acc);
}

/// z2 = |Z(j x)|^2 Icp^2 = |N(j x)|^2 / |D(j x)|^2 over the block.
HTMPLL_FOLD_INLINE void impedance_block(const FoldPlan& p, const double* x,
                                        std::size_t nb, double* z2) {
  if (p.real_tf) {
    double y[kBlock], ne[kBlock], no[kBlock], de[kBlock], dd[kBlock];
    for (std::size_t i = 0; i < kBlock; ++i) y[i] = -x[i] * x[i];
    horner_block(p.num_even, y, ne);
    horner_block(p.num_odd, y, no);
    horner_block(p.den_even, y, de);
    horner_block(p.den_odd, y, dd);
    // z - z is +0.0 for finite z and NaN otherwise: `bad` collects the
    // bits of the non-finite lanes.
    std::uint64_t bad = 0;
    for (std::size_t i = 0; i < kBlock; ++i) {
      const double ni = x[i] * no[i];
      const double zn = ne[i] * ne[i] + ni * ni;  // |N(jx)|^2
      const double di = x[i] * dd[i];
      z2[i] = zn / (de[i] * de[i] + di * di);  // over |D(jx)|^2
      bad |= std::bit_cast<std::uint64_t>(z2[i] - z2[i]);
    }
    if (bad == 0) return;
    // Over/underflowed squared magnitudes: redo the point with the
    // scaling-safe complex evaluator.
    for (std::size_t i = 0; i < nb; ++i) {
      if (!std::isfinite(z2[i])) z2[i] = std::norm((*p.hlf)(cplx{0.0, x[i]}));
    }
    return;
  }
  const CVector& num = p.hlf->num().coefficients();
  const CVector& den = p.hlf->den().coefficients();
  double zero[kBlock] = {}, z_re[kBlock], z_im[kBlock], t_re[kBlock],
         t_im[kBlock];
  batch_rational(num.data(), num.size(), den.data(), den.size(), zero, x, nb,
                 z_re, z_im, t_re, t_im);
  for (std::size_t i = 0; i < nb; ++i) {
    z2[i] = z_re[i] * z_re[i] + z_im[i] * z_im[i];
  }
  for (std::size_t i = nb; i < kBlock; ++i) z2[i] = 0.0;
}

// Charge-pump noise, general LPTV form:
//   T_{0,m} = Z(s_m) [ v_{-m}/s - (V~_0/(1+lambda)) sum_k v_k/(s + j(m+k) w0) ].
// On the jw axis every folding denominator s + j b w0 is imaginary, so
// v/(s + j b w0) = (Im v)/x - j (Re v)/x with x = w + b w0 and the
// bracket is real multiply-adds on reciprocals 1/(w + b w0), weighted by
// the tap planes g_k = (V~_0/(1+lambda)) (-j v_k).  The band's own
// reciprocal 1/(w + m w0) also feeds the PSD: its magnitude is 1/|x|
// bit for bit, so a term takes two divisions, this one and |Z|^2's.
HTMPLL_FOLD_INLINE void fold_charge_pump(const FoldPlan& p, const Block& b,
                                         PowerLawPsd psd, double* scratch,
                                         double* acc) {
  const std::size_t ntaps = p.taps.size();
  const double w0 = p.w0;
  const double* w = b.w;
  double g_re[kBlock], g_im[kBlock];  // the single tap's plane
  for (std::size_t t = 0; t < ntaps; ++t) {
    const double a = p.taps[t].a;
    const double v = p.taps[t].b;
    double* gr = ntaps == 1 ? g_re : scratch + 2 * t * kBlock;
    double* gi = ntaps == 1 ? g_im : gr + kBlock;
    for (std::size_t i = 0; i < kBlock; ++i) {
      const cplx tr = p.h00[b.i0 + std::min(i, b.nb - 1)];
      gr[i] = tr.real() * v + tr.imag() * a;
      gi[i] = tr.imag() * v - tr.real() * a;
    }
  }
  // 1/w is the b = 0 reciprocal row.
  double inv_w0[kBlock];
  const double* inv_w = inv_w0;
  double* rows = nullptr;
  if (ntaps == 1) {
    const double shift0 = band_shift(0, w0);
    for (std::size_t i = 0; i < kBlock; ++i) inv_w0[i] = 1.0 / (w[i] + shift0);
  } else {
    rows = scratch + 2 * ntaps * kBlock;
    for (int k = -p.bmax; k <= p.bmax; ++k) {
      double* row = rows + static_cast<std::size_t>(k + p.bmax) * kBlock;
      const double shift = band_shift(k, w0);
      for (std::size_t i = 0; i < kBlock; ++i) row[i] = 1.0 / (w[i] + shift);
    }
    inv_w = rows + static_cast<std::size_t>(p.bmax) * kBlock;
  }
  const double inv_icp2 = p.inv_icp2;
  double x[kBlock], z2[kBlock], term[kBlock], row_re[kBlock], row_im[kBlock];
  for (int m = -p.fold; m <= p.fold; ++m) {
    const double shift = band_shift(m, w0);
    for (std::size_t i = 0; i < kBlock; ++i) x[i] = w[i] + shift;
    impedance_block(p, x, b.nb, z2);
    const double vm_re = p.vm_re[static_cast<std::size_t>(m + p.fold)];
    const double vm_im = p.vm_im[static_cast<std::size_t>(m + p.fold)];
    if (ntaps == 1) {
      // DC-only ISF (the common case): one tap, k = 0, fused into the
      // sum -- bracket = v_{-m}/s - g_0 / (w + m w0).
      for (std::size_t i = 0; i < kBlock; ++i) {
        const double inv = 1.0 / x[i];
        const double br = vm_re * inv_w[i] - g_re[i] * inv;
        const double bi = vm_im * inv_w[i] - g_im[i] * inv;
        term[i] = z2[i] * inv_icp2 * (br * br + bi * bi) *
                  psd.at_reciprocal(std::abs(inv));
      }
      add_off_dc(x, term, acc);
      continue;
    }
    // The tracking * row_sum plane over the ISF window.
    for (std::size_t i = 0; i < kBlock; ++i) {
      row_re[i] = 0.0;
      row_im[i] = 0.0;
    }
    for (std::size_t t = 0; t < ntaps; ++t) {
      const double* inv =
          rows + static_cast<std::size_t>(m + p.taps[t].k + p.bmax) * kBlock;
      const double* gr = scratch + 2 * t * kBlock;
      const double* gi = gr + kBlock;
      for (std::size_t i = 0; i < kBlock; ++i) {
        row_re[i] += gr[i] * inv[i];
        row_im[i] += gi[i] * inv[i];
      }
    }
    // Row m is 1/(w + m w0) = 1/x.
    const double* inv_x =
        rows + static_cast<std::size_t>(m + p.bmax) * kBlock;
    for (std::size_t i = 0; i < kBlock; ++i) {
      const double br = vm_re * inv_w[i] - row_re[i];
      const double bi = vm_im * inv_w[i] - row_im[i];
      term[i] = z2[i] * inv_icp2 * (br * br + bi * bi) *
                psd.at_reciprocal(std::abs(inv_x[i]));
    }
    add_off_dc(x, term, acc);
  }
}

/// Folds the block of nb <= kBlock points at i0 into out[i0 ..].
HTMPLL_FOLD_INLINE void fold_block(const FoldPlan& p, std::size_t i0,
                                   std::size_t nb, double* scratch,
                                   double* out) {
  Block b;
  b.i0 = i0;
  b.nb = nb;
  double acc[kBlock], h2[kBlock], g_base[kBlock];
  for (std::size_t i = 0; i < kBlock; ++i) {
    b.w[i] = p.w[i0 + std::min(i, nb - 1)];
    acc[i] = 0.0;
    const cplx h = p.h00[i0 + std::min(i, nb - 1)];
    const double hr = h.real();
    const double hi = h.imag();
    h2[i] = hr * hr + hi * hi;  // |H_00|^2
    const double br = 1.0 - hr;
    const double bi = 0.0 - hi;
    g_base[i] = br * br + bi * bi;  // |1 - H_00|^2
  }
  // Reference noise is a baseband quantity in the paper's convention;
  // only H_{0,0} applies.
  for (std::size_t i = 0; i < nb; ++i) {
    acc[i] += h2[i] * p.ref.at_reciprocal(1.0 / std::abs(b.w[i]));
  }
  fold_vco(p, b, p.vco, g_base, h2, acc);
  fold_charge_pump(p, b, p.icp, scratch, acc);

  for (std::size_t i = 0; i < nb; ++i) out[i0 + i] = acc[i];
}

void fold_grid_baseline(const FoldPlan& p, std::size_t n, double* scratch,
                        double* out) {
  for (std::size_t i0 = 0; i0 < n; i0 += kBlock) {
    fold_block(p, i0, std::min(kBlock, n - i0), scratch, out);
  }
}

#if HTMPLL_FOLD_AVX2
__attribute__((target("avx2"))) void fold_grid_avx2(const FoldPlan& p,
                                                    std::size_t n,
                                                    double* scratch,
                                                    double* out) {
  for (std::size_t i0 = 0; i0 < n; i0 += kBlock) {
    fold_block(p, i0, std::min(kBlock, n - i0), scratch, out);
  }
}
#endif

#undef HTMPLL_FOLD_INLINE

}  // namespace

namespace detail {

std::vector<double> fold_noise_grid(const SamplingPllModel& model,
                                    int fold_harmonics,
                                    const std::vector<double>& w_grid,
                                    const cplx* h00, const PowerLawPsd& s_ref,
                                    const PowerLawPsd& s_vco,
                                    const PowerLawPsd& s_icp, simd::Isa isa) {
  HTMPLL_REQUIRE(fold_harmonics >= 0, "fold_harmonics must be >= 0");
  require_power_law(s_ref);
  require_power_law(s_vco);
  require_power_law(s_icp);
  const std::size_t n = w_grid.size();
  FoldPlan p;
  p.w = w_grid.data();
  p.h00 = h00;
  p.ref = s_ref;
  p.vco = s_vco;
  p.icp = s_icp;
  p.w0 = model.w0();
  p.fold = fold_harmonics;
  const PllParameters& params = model.parameters();
  p.hlf = &model.loop_filter_tf();
  const CVector& num = p.hlf->num().coefficients();
  const CVector& den = p.hlf->den().coefficients();
  p.real_tf = all_real(num) && all_real(den);
  if (p.real_tf) {
    even_odd_split(num, p.num_even, p.num_odd);
    even_odd_split(den, p.den_even, p.den_odd);
  }
  const double inv_icp = 1.0 / params.icp;
  p.inv_icp2 = inv_icp * inv_icp;
  const HarmonicCoefficients& isf = model.isf();
  const int jmax = isf.max_harmonic();
  for (int k = -jmax; k <= jmax; ++k) {
    const cplx v_k = params.kvco * isf[k];
    if (v_k == cplx{0.0}) continue;
    p.taps.push_back({k, v_k.real(), v_k.imag()});
  }
  // The ISF's DC coefficient is nonzero, so a lone tap is k = 0: the
  // fused one-tap charge-pump loop relies on it.
  HTMPLL_ASSERT(p.taps.size() != 1 || p.taps[0].k == 0);
  for (int m = -fold_harmonics; m <= fold_harmonics; ++m) {
    const cplx v_minus_m = params.kvco * isf[-m];
    p.vm_re.push_back(v_minus_m.imag());
    p.vm_im.push_back(-v_minus_m.real());
  }
  p.bmax = fold_harmonics + jmax;

  std::vector<double> out(n);
  std::vector<double> scratch(scratch_size(p));
#if HTMPLL_FOLD_AVX2
  if (isa == simd::Isa::kAvx2Fma) {
    fold_grid_avx2(p, n, scratch.data(), out.data());
  } else {
    fold_grid_baseline(p, n, scratch.data(), out.data());
  }
#else
  (void)isa;
  fold_grid_baseline(p, n, scratch.data(), out.data());
#endif
  // The VCO and the charge-pump bands.
  fold_terms_counter().add(
      2 * (2 * static_cast<std::size_t>(fold_harmonics) + 1) * n);
  return out;
}

}  // namespace detail

double PowerLawPsd::operator()(double w) const {
  require_power_law(*this);
  const double aw = std::abs(w);
  HTMPLL_REQUIRE(aw > 0.0, "power-law PSD evaluated at DC");
  return at_reciprocal(1.0 / aw);
}

NoiseAnalysis::NoiseAnalysis(const SamplingPllModel& model,
                             int fold_harmonics)
    : model_(model), fold_(fold_harmonics) {
  HTMPLL_REQUIRE(fold_harmonics >= 0,
                 "fold_harmonics must be >= 0 (zero keeps only the "
                 "unfolded m = 0 term)");
}

cplx NoiseAnalysis::reference_transfer(double w) const {
  return model_.baseband_transfer(cplx{0.0, w});
}

cplx NoiseAnalysis::vco_transfer(int m, double w) const {
  const cplx h00 = model_.baseband_transfer(cplx{0.0, w});
  return (m == 0 ? cplx{1.0} : cplx{0.0}) - h00;
}

cplx NoiseAnalysis::charge_pump_transfer(int m, double w) const {
  return charge_pump_transfer_impl(m, w, model_.closed_loop(0, cplx{0.0, w}));
}

cplx NoiseAnalysis::charge_pump_transfer_impl(int m, double w,
                                              cplx tracking) const {
  const cplx s{0.0, w};
  const double w0 = model_.w0();
  const cplx sm = s + cplx{0.0, static_cast<double>(m) * w0};
  const PllParameters& p = model_.parameters();
  // Current noise is injected at the filter INPUT: it sees the
  // impedance Z (and any extra loop dynamics), not Icp*Z -- the pump
  // current belongs to the PFD pulses only.  loop_filter_tf() is
  // Icp * Z * extras, so divide Icp back out.
  const cplx z_m = model_.loop_filter_tf()(sm) / p.icp;
  // General LPTV form with E = H_VCO Z_diag:
  //   T_{0,m} = Z(s_m) [ v_{-m}/s
  //                      - (V~_0/(1+lambda)) sum_k v_k/(s + j(m+k) w0) ]
  // (reduces to D_m (delta - H_00) for a DC-only ISF).
  const HarmonicCoefficients& isf = model_.isf();
  const cplx v_minus_m = p.kvco * isf[-m];
  cplx row_sum{0.0};
  for (int k = -isf.max_harmonic(); k <= isf.max_harmonic(); ++k) {
    const cplx v_k = p.kvco * isf[k];
    if (v_k == cplx{0.0}) continue;
    const cplx sn =
        s + cplx{0.0, static_cast<double>(m + k) * w0};
    row_sum += v_k / sn;
  }
  return z_m * (v_minus_m / s - tracking * row_sum);
}

double NoiseAnalysis::output_psd_from_reference(
    double w, const PowerLawPsd& s_ref) const {
  // Reference noise is a baseband quantity in the paper's convention;
  // only H_{0,0} applies.
  return std::norm(reference_transfer(w)) * s_ref(std::abs(w));
}

double NoiseAnalysis::output_psd_from_vco(double w,
                                          const PowerLawPsd& s_vco) const {
  const double w0 = model_.w0();
  // vco_transfer(m, w) = delta_{m0} - H_00(jw): hoist the (expensive)
  // H_00 evaluation out of the folding loop -- it does not depend on m.
  const cplx h00 = model_.baseband_transfer(cplx{0.0, w});
  double acc = 0.0;
  for (int m = -fold_; m <= fold_; ++m) {
    const double wm = std::abs(w + static_cast<double>(m) * w0);
    if (wm == 0.0) continue;
    const cplx t = (m == 0 ? cplx{1.0} : cplx{0.0}) - h00;
    acc += std::norm(t) * s_vco(wm);
  }
  return acc;
}

double NoiseAnalysis::output_psd_from_charge_pump(
    double w, const PowerLawPsd& s_icp) const {
  const double w0 = model_.w0();
  const cplx tracking = model_.closed_loop(0, cplx{0.0, w});
  double acc = 0.0;
  for (int m = -fold_; m <= fold_; ++m) {
    const double wm = std::abs(w + static_cast<double>(m) * w0);
    if (wm == 0.0) continue;
    acc += std::norm(charge_pump_transfer_impl(m, w, tracking)) * s_icp(wm);
  }
  return acc;
}

double NoiseAnalysis::output_psd_total(double w, const PowerLawPsd& s_ref,
                                       const PowerLawPsd& s_vco,
                                       const PowerLawPsd& s_icp) const {
  return output_psd_from_reference(w, s_ref) +
         output_psd_from_vco(w, s_vco) +
         output_psd_from_charge_pump(w, s_icp);
}

double NoiseAnalysis::integrated_rms(
    const std::function<double(double)>& s_out, double w_lo, double w_hi,
    std::size_t points) const {
  HTMPLL_REQUIRE(points >= 2, "quadrature needs at least two points");
  const std::vector<double> grid = logspace(w_lo, w_hi, points);
  std::vector<double> psd(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) psd[i] = s_out(grid[i]);
  return trapezoid_rms(grid, psd);
}

// ---- batched grid -----------------------------------------------------

std::vector<double> NoiseAnalysis::output_psd_grid(
    const std::vector<double>& w_grid, const PowerLawPsd& s_ref,
    const PowerLawPsd& s_vco, const PowerLawPsd& s_icp) const {
  require_grid(w_grid);
  HTMPLL_TRACE_SPAN("noise.psd_grid");
  const CVector h00 = model_.baseband_transfer_grid(jw_grid(w_grid));
  return detail::fold_noise_grid(model_, fold_, w_grid, h00.data(), s_ref,
                                 s_vco, s_icp, simd::active_isa());
}

double NoiseAnalysis::integrated_jitter(double w_lo, double w_hi,
                                        const PowerLawPsd& s_ref,
                                        const PowerLawPsd& s_vco,
                                        const PowerLawPsd& s_icp,
                                        std::size_t points) const {
  HTMPLL_REQUIRE(points >= 2, "quadrature needs at least two points");
  const std::vector<double> grid = logspace(w_lo, w_hi, points);
  return trapezoid_rms(grid, output_psd_grid(grid, s_ref, s_vco, s_icp));
}

}  // namespace htmpll
