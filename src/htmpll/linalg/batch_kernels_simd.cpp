// AVX2+FMA variants of the SoA batch kernels.
//
// Compiled for the baseline ISA with per-function target("avx2,fma")
// attributes, so the library links and runs everywhere; the vector code
// paths execute only after the runtime dispatch (linalg/simd.hpp)
// confirms the CPU feature bits.
//
// Transcendental kernels are polynomial:
//  * vexp: round-to-nearest base-2 range reduction (two-step Cody-Waite
//    ln2 split), degree-11 Taylor on |r| <= ln2/2 (truncation ~7e-15
//    relative), exponent reassembly through the IEEE-754 bit layout.
//    Valid for |x| <= 708 -- the entire normal range of exp.
//  * vsincos: reduction by pi/2 (three-step Cody-Waite, exact products
//    for |n| < 2^19), Cephes minimax polynomials on |r| <= pi/4
//    (~1 ulp), quadrant fix-up via integer masks.  Valid for
//    |x| <= 1e5; larger reductions would need a wider n than the
//    33-bit constant split keeps exact.
//
// Any lane outside these ranges -- and any non-finite input -- routes
// its whole 4-lane block through the exact scalar operation sequence
// (batch_kernels_detail.hpp), so NaN/Inf propagation, subnormal
// handling and the pole-sum cancellation guards match the scalar
// kernels exactly.  Tails shorter than the lane width are scalar too.
#include "htmpll/linalg/batch_kernels_simd.hpp"

#include <cmath>
#include <complex>
#include <limits>
#include <stdexcept>

#include "htmpll/linalg/batch_kernels_detail.hpp"
#include "htmpll/obs/diag.hpp"

#if defined(HTMPLL_SIMD_COMPILED) && defined(__x86_64__) && \
    (defined(__GNUC__) || defined(__clang__))
#define HTMPLL_SIMD_X86 1
#include <immintrin.h>
#else
#define HTMPLL_SIMD_X86 0
#endif

namespace htmpll::detail {

#if HTMPLL_SIMD_X86

#define HTMPLL_TGT __attribute__((target("avx2,fma")))

namespace {

/// Largest |Im z| the vector sincos reduction covers; beyond it the
/// block falls back to scalar libm.
constexpr double kSinCosRange = 1.0e5;
/// Largest |Re z| the vector exp covers (the full normal range).
constexpr double kExpRange = 708.0;

HTMPLL_TGT inline __m256d vabs(__m256d x) {
  return _mm256_andnot_pd(_mm256_set1_pd(-0.0), x);
}

/// exp(x) for finite |x| <= kExpRange (caller-filtered).
HTMPLL_TGT inline __m256d vexp(__m256d x) {
  const __m256d log2e = _mm256_set1_pd(1.4426950408889634074);
  const __m256d ln2_hi = _mm256_set1_pd(6.93145751953125e-1);
  const __m256d ln2_lo = _mm256_set1_pd(1.42860682030941723212e-6);
  const __m256d n = _mm256_round_pd(
      _mm256_mul_pd(x, log2e), _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(n, ln2_hi, x);
  r = _mm256_fnmadd_pd(n, ln2_lo, r);
  // Degree-11 Taylor of e^r on |r| <= ln2/2 (Horner, FMA).
  __m256d p = _mm256_set1_pd(1.0 / 39916800.0);  // 1/11!
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 3628800.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 362880.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 40320.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 5040.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 720.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 120.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 24.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0 / 6.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(0.5));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));
  p = _mm256_fmadd_pd(p, r, _mm256_set1_pd(1.0));
  // Scale by 2^n: |x| <= 708 keeps n in [-1021, 1022], the biased
  // exponent in the normal range -- no subnormal assembly needed.
  const __m128i n32 = _mm256_cvtpd_epi32(n);
  const __m256i n64 = _mm256_cvtepi32_epi64(n32);
  const __m256i bits =
      _mm256_slli_epi64(_mm256_add_epi64(n64, _mm256_set1_epi64x(1023)), 52);
  return _mm256_mul_pd(p, _mm256_castsi256_pd(bits));
}

/// sin(x) and cos(x) for finite |x| <= kSinCosRange (caller-filtered).
HTMPLL_TGT inline void vsincos(__m256d x, __m256d& sin_x, __m256d& cos_x) {
  const __m256d two_over_pi = _mm256_set1_pd(0.63661977236758134308);
  // fdlibm's three-double split of pi/2 (33 significant bits each).
  const __m256d pio2_1 = _mm256_set1_pd(1.57079632673412561417e+00);
  const __m256d pio2_2 = _mm256_set1_pd(6.07710050630396597660e-11);
  const __m256d pio2_3 = _mm256_set1_pd(2.02226624871116645580e-21);
  const __m256d n = _mm256_round_pd(
      _mm256_mul_pd(x, two_over_pi),
      _MM_FROUND_TO_NEAREST_INT | _MM_FROUND_NO_EXC);
  __m256d r = _mm256_fnmadd_pd(n, pio2_1, x);
  r = _mm256_fnmadd_pd(n, pio2_2, r);
  r = _mm256_fnmadd_pd(n, pio2_3, r);
  const __m256d z = _mm256_mul_pd(r, r);
  // Cephes sin: r + r^3 P(r^2), |r| <= pi/4.
  __m256d ps = _mm256_set1_pd(1.58962301576546568060e-10);
  ps = _mm256_fmadd_pd(ps, z, _mm256_set1_pd(-2.50507477628578072866e-8));
  ps = _mm256_fmadd_pd(ps, z, _mm256_set1_pd(2.75573136213857245213e-6));
  ps = _mm256_fmadd_pd(ps, z, _mm256_set1_pd(-1.98412698295895385996e-4));
  ps = _mm256_fmadd_pd(ps, z, _mm256_set1_pd(8.33333333332211858878e-3));
  ps = _mm256_fmadd_pd(ps, z, _mm256_set1_pd(-1.66666666666666307295e-1));
  const __m256d sin_r =
      _mm256_fmadd_pd(_mm256_mul_pd(ps, z), r, r);
  // Cephes cos: 1 - z/2 + z^2 Q(z).
  __m256d pc = _mm256_set1_pd(-1.13585365213876817300e-11);
  pc = _mm256_fmadd_pd(pc, z, _mm256_set1_pd(2.08757008419747316778e-9));
  pc = _mm256_fmadd_pd(pc, z, _mm256_set1_pd(-2.75573141792967388112e-7));
  pc = _mm256_fmadd_pd(pc, z, _mm256_set1_pd(2.48015872888517179954e-5));
  pc = _mm256_fmadd_pd(pc, z, _mm256_set1_pd(-1.38888888888730564116e-3));
  pc = _mm256_fmadd_pd(pc, z, _mm256_set1_pd(4.16666666666665929218e-2));
  __m256d cos_r = _mm256_fmadd_pd(
      pc, _mm256_mul_pd(z, z),
      _mm256_fnmadd_pd(z, _mm256_set1_pd(0.5), _mm256_set1_pd(1.0)));
  // Quadrant fix-up: x = n pi/2 + r, q = n mod 4.
  //   q=0: (sin_r,  cos_r)   q=1: ( cos_r, -sin_r)
  //   q=2: (-sin_r, -cos_r)  q=3: (-cos_r,  sin_r)
  const __m128i n32 = _mm256_cvtpd_epi32(n);
  const __m256i q = _mm256_and_si256(_mm256_cvtepi32_epi64(n32),
                                     _mm256_set1_epi64x(3));
  const __m256i one64 = _mm256_set1_epi64x(1);
  const __m256i two64 = _mm256_set1_epi64x(2);
  const __m256d swap = _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(_mm256_and_si256(q, one64), one64));
  const __m256d flip_sin = _mm256_castsi256_pd(
      _mm256_cmpeq_epi64(_mm256_and_si256(q, two64), two64));
  const __m256d flip_cos = _mm256_castsi256_pd(_mm256_cmpeq_epi64(
      _mm256_and_si256(_mm256_add_epi64(q, one64), two64), two64));
  const __m256d neg_zero = _mm256_set1_pd(-0.0);
  sin_x = _mm256_blendv_pd(sin_r, cos_r, swap);
  sin_x = _mm256_xor_pd(sin_x, _mm256_and_pd(flip_sin, neg_zero));
  cos_x = _mm256_blendv_pd(cos_r, sin_r, swap);
  cos_x = _mm256_xor_pd(cos_x, _mm256_and_pd(flip_cos, neg_zero));
}

/// One point of the scalar cexp loop -- the exact op sequence of
/// batch_cexp_scalar, used for out-of-range/non-finite lanes.
inline void scalar_cexp_point(double zr, double zi, double& out_re,
                              double& out_im) {
  const double m = std::exp(zr);
  out_re = m * std::cos(zi);
  out_im = m * std::sin(zi);
}

}  // namespace

bool simd_kernels_compiled() { return true; }

bool simd_cpu_has_avx2_fma() {
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
}

HTMPLL_TGT void batch_cexp_avx2(const double* z_re, const double* z_im,
                                std::size_t n, double* out_re,
                                double* out_im) {
  const __m256d re_max = _mm256_set1_pd(kExpRange);
  const __m256d im_max = _mm256_set1_pd(kSinCosRange);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d zr = _mm256_loadu_pd(z_re + i);
    const __m256d zi = _mm256_loadu_pd(z_im + i);
    // NaN compares false, so non-finite lanes fail the range test too.
    const __m256d ok =
        _mm256_and_pd(_mm256_cmp_pd(vabs(zr), re_max, _CMP_LE_OQ),
                      _mm256_cmp_pd(vabs(zi), im_max, _CMP_LE_OQ));
    const int ok_mask = _mm256_movemask_pd(ok);
    if (ok_mask != 0xF) {
      if (obs::enabled()) {
        // Tag the whole-block bailout with why its lanes failed:
        // non-finite input beats merely out-of-range when both occur.
        bool non_finite = false;
        for (std::size_t j = i; j < i + 4; ++j) {
          non_finite = non_finite || !std::isfinite(z_re[j]) ||
                       !std::isfinite(z_im[j]);
        }
        obs::diag_event(non_finite
                            ? obs::DiagReason::kSimdBailoutNonFinite
                            : obs::DiagReason::kSimdBailoutOutOfRange,
                        static_cast<double>(
                            4 - __builtin_popcount(ok_mask & 0xF)));
      }
      for (std::size_t j = i; j < i + 4; ++j) {
        scalar_cexp_point(z_re[j], z_im[j], out_re[j], out_im[j]);
      }
      continue;
    }
    const __m256d m = vexp(zr);
    __m256d s, c;
    vsincos(zi, s, c);
    _mm256_storeu_pd(out_re + i, _mm256_mul_pd(m, c));
    _mm256_storeu_pd(out_im + i, _mm256_mul_pd(m, s));
  }
  for (; i < n; ++i) {
    scalar_cexp_point(z_re[i], z_im[i], out_re[i], out_im[i]);
  }
}

HTMPLL_TGT void batch_horner_avx2(const cplx* coeff, std::size_t n_coeff,
                                  const double* s_re, const double* s_im,
                                  std::size_t n, double* out_re,
                                  double* out_im) {
  const double tr = coeff[n_coeff - 1].real();
  const double ti = coeff[n_coeff - 1].imag();
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d xr = _mm256_loadu_pd(s_re + i);
    const __m256d xi = _mm256_loadu_pd(s_im + i);
    __m256d ar = _mm256_set1_pd(tr);
    __m256d ai = _mm256_set1_pd(ti);
    for (std::size_t k = n_coeff - 1; k-- > 0;) {
      const __m256d cr = _mm256_set1_pd(coeff[k].real());
      const __m256d ci = _mm256_set1_pd(coeff[k].imag());
      const __m256d pr = ar;
      const __m256d pi_ = ai;
      // a = a*x + c, componentwise with FMA.
      ar = _mm256_fmadd_pd(pr, xr, _mm256_fnmadd_pd(pi_, xi, cr));
      ai = _mm256_fmadd_pd(pr, xi, _mm256_fmadd_pd(pi_, xr, ci));
    }
    _mm256_storeu_pd(out_re + i, ar);
    _mm256_storeu_pd(out_im + i, ai);
  }
  for (; i < n; ++i) {
    double ar = tr;
    double ai = ti;
    for (std::size_t k = n_coeff - 1; k-- > 0;) {
      const double pr = ar;
      const double pi_ = ai;
      ar = pr * s_re[i] - pi_ * s_im[i] + coeff[k].real();
      ai = pr * s_im[i] + pi_ * s_re[i] + coeff[k].imag();
    }
    out_re[i] = ar;
    out_im[i] = ai;
  }
}

HTMPLL_TGT void batch_complex_div_avx2(std::size_t n, double* out_re,
                                       double* out_im, const double* den_re,
                                       const double* den_im) {
  const __m256d lo = _mm256_set1_pd(1e-290);
  const __m256d hi = _mm256_set1_pd(1e290);
  const __m256d one = _mm256_set1_pd(1.0);
  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d nr = _mm256_loadu_pd(out_re + i);
    const __m256d ni = _mm256_loadu_pd(out_im + i);
    const __m256d dr = _mm256_loadu_pd(den_re + i);
    const __m256d di = _mm256_loadu_pd(den_im + i);
    const __m256d d2 = _mm256_fmadd_pd(dr, dr, _mm256_mul_pd(di, di));
    // Out-of-range or NaN |den|^2 lanes defer to std::complex division,
    // exactly like the scalar loop.
    const __m256d ok = _mm256_and_pd(_mm256_cmp_pd(d2, lo, _CMP_GE_OQ),
                                     _mm256_cmp_pd(d2, hi, _CMP_LE_OQ));
    const int ok_mask = _mm256_movemask_pd(ok);
    if (ok_mask != 0xF) {
      obs::diag_event(
          obs::DiagReason::kSimdBailoutGuardTrip,
          static_cast<double>(4 - __builtin_popcount(ok_mask & 0xF)));
      for (std::size_t j = i; j < i + 4; ++j) {
        rational_div_point(out_re[j], out_im[j], den_re[j], den_im[j]);
      }
      continue;
    }
    const __m256d inv = _mm256_div_pd(one, d2);
    const __m256d qr = _mm256_mul_pd(
        _mm256_fmadd_pd(nr, dr, _mm256_mul_pd(ni, di)), inv);
    const __m256d qi = _mm256_mul_pd(
        _mm256_fnmadd_pd(nr, di, _mm256_mul_pd(ni, dr)), inv);
    _mm256_storeu_pd(out_re + i, qr);
    _mm256_storeu_pd(out_im + i, qi);
  }
  for (; i < n; ++i) {
    rational_div_point(out_re[i], out_im[i], den_re[i], den_im[i]);
  }
}

HTMPLL_TGT void accumulate_pole_sums_avx2(const PoleSumTerm& term, double c,
                                          const double* s_re,
                                          const double* s_im,
                                          const double* e_re,
                                          const double* e_im, std::size_t n,
                                          double* acc_re, double* acc_im) {
  if (!term.factored) {
    // No shared exp(-sT) plane to build on (exp(pT) over/underflowed at
    // plan build): every point recomputes exp(-2u) -- the scalar path.
    for (std::size_t i = 0; i < n; ++i) {
      pole_point_accumulate(term, c, cplx{s_re[i], s_im[i]}, cplx{0.0},
                            acc_re[i], acc_im[i]);
    }
    return;
  }
  const int kmax = term.kmax;
  const __m256d zero = _mm256_setzero_pd();
  const __m256d one = _mm256_set1_pd(1.0);
  const __m256d two = _mm256_set1_pd(2.0);
  const __m256d four = _mm256_set1_pd(4.0);
  const __m256d dmax = _mm256_set1_pd(std::numeric_limits<double>::max());
  const __m256d vc = _mm256_set1_pd(c);
  const __m256d vc2 = _mm256_set1_pd(c * c);
  const __m256d vc3 = _mm256_set1_pd(c * c * c);
  const __m256d vc4 = _mm256_set1_pd(c * c * c * c / 3.0);
  const __m256d ppr = _mm256_set1_pd(term.pole.real());
  const __m256d ppi = _mm256_set1_pd(term.pole.imag());
  const __m256d ptr = _mm256_set1_pd(term.exp_pole_t.real());
  const __m256d pti = _mm256_set1_pd(term.exp_pole_t.imag());
  const __m256d r0r = _mm256_set1_pd(term.residues[0].real());
  const __m256d r0i = _mm256_set1_pd(term.residues[0].imag());
  const __m256d r1r = _mm256_set1_pd(term.residues[1].real());
  const __m256d r1i = _mm256_set1_pd(term.residues[1].imag());
  const __m256d r2r = _mm256_set1_pd(term.residues[2].real());
  const __m256d r2i = _mm256_set1_pd(term.residues[2].imag());
  const __m256d r3r = _mm256_set1_pd(term.residues[3].real());
  const __m256d r3i = _mm256_set1_pd(term.residues[3].imag());

  std::size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256d sr = _mm256_loadu_pd(s_re + i);
    const __m256d si = _mm256_loadu_pd(s_im + i);
    const __m256d ur = _mm256_mul_pd(vc, _mm256_sub_pd(sr, ppr));
    const __m256d ui = _mm256_mul_pd(vc, _mm256_sub_pd(si, ppi));
    const __m256d norm_u = _mm256_fmadd_pd(ur, ur, _mm256_mul_pd(ui, ui));
    const __m256d er = _mm256_loadu_pd(e_re + i);
    const __m256d ei = _mm256_loadu_pd(e_im + i);
    // e2 = exp(-sT) exp(pT).
    const __m256d e2r = _mm256_fmsub_pd(er, ptr, _mm256_mul_pd(ei, pti));
    const __m256d e2i = _mm256_fmadd_pd(er, pti, _mm256_mul_pd(ei, ptr));
    const __m256d d1r = _mm256_sub_pd(one, e2r);
    const __m256d d1i = _mm256_sub_pd(zero, e2i);
    const __m256d d2r = _mm256_add_pd(one, e2r);
    const __m256d nd1 = _mm256_fmadd_pd(d1r, d1r, _mm256_mul_pd(d1i, d1i));
    const __m256d nd2 = _mm256_fmadd_pd(d2r, d2r, _mm256_mul_pd(e2i, e2i));
    // Fast lanes: away from the series region and the aliasing poles,
    // right of the pole abscissa, with a finite factored exponential.
    // NaN compares false, sending the lane to the scalar sequence.
    __m256d fast = _mm256_and_pd(
        _mm256_cmp_pd(norm_u, _mm256_set1_pd(1e-6), _CMP_GE_OQ),
        _mm256_cmp_pd(ur, zero, _CMP_GE_OQ));
    fast = _mm256_and_pd(fast, _mm256_cmp_pd(vabs(e2r), dmax, _CMP_LE_OQ));
    fast = _mm256_and_pd(fast, _mm256_cmp_pd(vabs(e2i), dmax, _CMP_LE_OQ));
    fast = _mm256_and_pd(fast,
                         _mm256_cmp_pd(nd1, _mm256_set1_pd(1e-4), _CMP_GE_OQ));
    fast = _mm256_and_pd(fast,
                         _mm256_cmp_pd(nd2, _mm256_set1_pd(1e-4), _CMP_GE_OQ));
    const int fast_mask = _mm256_movemask_pd(fast);
    if (fast_mask != 0xF) {
      obs::diag_event(
          obs::DiagReason::kSimdBailoutGuardTrip,
          static_cast<double>(4 - __builtin_popcount(fast_mask & 0xF)));
      for (std::size_t j = i; j < i + 4; ++j) {
        pole_point_accumulate(term, c, cplx{s_re[j], s_im[j]},
                              cplx{e_re[j], e_im[j]}, acc_re[j], acc_im[j]);
      }
      continue;
    }
    // ct = (1+e2)/(1-e2) via the conjugate formula (|1-e2|^2 >= 1e-4).
    const __m256d inv1 = _mm256_div_pd(one, nd1);
    const __m256d ctr = _mm256_mul_pd(
        _mm256_fmadd_pd(d2r, d1r, _mm256_mul_pd(e2i, d1i)), inv1);
    const __m256d cti = _mm256_mul_pd(
        _mm256_fmsub_pd(e2i, d1r, _mm256_mul_pd(d2r, d1i)), inv1);
    __m256d accr = _mm256_loadu_pd(acc_re + i);
    __m256d acci = _mm256_loadu_pd(acc_im + i);
    // acc += r0 * (c * ct); term-by-term accumulation matches the
    // scalar association.
    {
      const __m256d t1r = _mm256_mul_pd(vc, ctr);
      const __m256d t1i = _mm256_mul_pd(vc, cti);
      accr = _mm256_add_pd(
          accr, _mm256_fmsub_pd(r0r, t1r, _mm256_mul_pd(r0i, t1i)));
      acci = _mm256_add_pd(
          acci, _mm256_fmadd_pd(r0r, t1i, _mm256_mul_pd(r0i, t1r)));
    }
    if (kmax >= 2) {
      // cs2 = 4 e2 / (1-e2)^2 = 4 e2 conj(d1^2) / |1-e2|^4.
      const __m256d invsq = _mm256_mul_pd(inv1, inv1);
      const __m256d d1sqr =
          _mm256_fmsub_pd(d1r, d1r, _mm256_mul_pd(d1i, d1i));
      const __m256d d1sqi = _mm256_mul_pd(two, _mm256_mul_pd(d1r, d1i));
      const __m256d numr =
          _mm256_fmadd_pd(e2r, d1sqr, _mm256_mul_pd(e2i, d1sqi));
      const __m256d numi =
          _mm256_fmsub_pd(e2i, d1sqr, _mm256_mul_pd(e2r, d1sqi));
      const __m256d cs2r =
          _mm256_mul_pd(four, _mm256_mul_pd(numr, invsq));
      const __m256d cs2i =
          _mm256_mul_pd(four, _mm256_mul_pd(numi, invsq));
      {
        const __m256d t2r = _mm256_mul_pd(vc2, cs2r);
        const __m256d t2i = _mm256_mul_pd(vc2, cs2i);
        accr = _mm256_add_pd(
            accr, _mm256_fmsub_pd(r1r, t2r, _mm256_mul_pd(r1i, t2i)));
        acci = _mm256_add_pd(
            acci, _mm256_fmadd_pd(r1r, t2i, _mm256_mul_pd(r1i, t2r)));
      }
      if (kmax >= 3) {
        const __m256d mr =
            _mm256_fmsub_pd(cs2r, ctr, _mm256_mul_pd(cs2i, cti));
        const __m256d mi =
            _mm256_fmadd_pd(cs2r, cti, _mm256_mul_pd(cs2i, ctr));
        const __m256d t3r = _mm256_mul_pd(vc3, mr);
        const __m256d t3i = _mm256_mul_pd(vc3, mi);
        accr = _mm256_add_pd(
            accr, _mm256_fmsub_pd(r2r, t3r, _mm256_mul_pd(r2i, t3i)));
        acci = _mm256_add_pd(
            acci, _mm256_fmadd_pd(r2r, t3i, _mm256_mul_pd(r2i, t3r)));
        if (kmax >= 4) {
          // 2 cs2 ct^2 + cs2^2.
          const __m256d ct2r =
              _mm256_fmsub_pd(ctr, ctr, _mm256_mul_pd(cti, cti));
          const __m256d ct2i = _mm256_mul_pd(two, _mm256_mul_pd(ctr, cti));
          const __m256d ar_ =
              _mm256_fmsub_pd(cs2r, ct2r, _mm256_mul_pd(cs2i, ct2i));
          const __m256d ai_ =
              _mm256_fmadd_pd(cs2r, ct2i, _mm256_mul_pd(cs2i, ct2r));
          const __m256d cs2sqr =
              _mm256_fmsub_pd(cs2r, cs2r, _mm256_mul_pd(cs2i, cs2i));
          const __m256d cs2sqi =
              _mm256_mul_pd(two, _mm256_mul_pd(cs2r, cs2i));
          const __m256d wr = _mm256_fmadd_pd(two, ar_, cs2sqr);
          const __m256d wi = _mm256_fmadd_pd(two, ai_, cs2sqi);
          const __m256d t4r = _mm256_mul_pd(vc4, wr);
          const __m256d t4i = _mm256_mul_pd(vc4, wi);
          accr = _mm256_add_pd(
              accr, _mm256_fmsub_pd(r3r, t4r, _mm256_mul_pd(r3i, t4i)));
          acci = _mm256_add_pd(
              acci, _mm256_fmadd_pd(r3r, t4i, _mm256_mul_pd(r3i, t4r)));
        }
      }
    }
    _mm256_storeu_pd(acc_re + i, accr);
    _mm256_storeu_pd(acc_im + i, acci);
  }
  for (; i < n; ++i) {
    pole_point_accumulate(term, c, cplx{s_re[i], s_im[i]},
                          cplx{e_re[i], e_im[i]}, acc_re[i], acc_im[i]);
  }
}

#else  // !HTMPLL_SIMD_X86: stubs (dispatch never selects them)

namespace {
[[noreturn]] void simd_unavailable() {
  throw std::logic_error(
      "htmpll: AVX2 batch kernels are not compiled into this build "
      "(configure with -DHTMPLL_SIMD=ON on an x86-64 GCC/Clang "
      "toolchain)");
}
}  // namespace

bool simd_kernels_compiled() { return false; }
bool simd_cpu_has_avx2_fma() { return false; }

void batch_cexp_avx2(const double*, const double*, std::size_t, double*,
                     double*) {
  simd_unavailable();
}
void batch_horner_avx2(const cplx*, std::size_t, const double*,
                       const double*, std::size_t, double*, double*) {
  simd_unavailable();
}
void batch_complex_div_avx2(std::size_t, double*, double*, const double*,
                            const double*) {
  simd_unavailable();
}
void accumulate_pole_sums_avx2(const PoleSumTerm&, double, const double*,
                               const double*, const double*, const double*,
                               std::size_t, double*, double*) {
  simd_unavailable();
}

#endif  // HTMPLL_SIMD_X86

}  // namespace htmpll::detail
