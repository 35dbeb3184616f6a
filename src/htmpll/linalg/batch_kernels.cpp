#include "htmpll/linalg/batch_kernels.hpp"

#include <cmath>
#include <complex>

#include "htmpll/linalg/batch_kernels_detail.hpp"
#include "htmpll/linalg/batch_kernels_simd.hpp"
#include "htmpll/linalg/simd.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll {

namespace {

/// One-time runtime dispatch decision (linalg/simd.hpp): AVX2 lanes
/// when compiled in, supported by the CPU and not vetoed by
/// HTMPLL_SIMD=0; the portable scalar loops otherwise.
inline bool use_avx2() {
  return simd::active_isa() == simd::Isa::kAvx2Fma;
}

}  // namespace

namespace detail {

void batch_cexp_scalar(const double* z_re, const double* z_im,
                       std::size_t n, double* out_re, double* out_im) {
  for (std::size_t i = 0; i < n; ++i) {
    const double m = std::exp(z_re[i]);
    out_re[i] = m * std::cos(z_im[i]);
    out_im[i] = m * std::sin(z_im[i]);
  }
}

void batch_horner_scalar(const cplx* coeff, std::size_t n_coeff,
                         const double* s_re, const double* s_im,
                         std::size_t n, double* out_re, double* out_im) {
  const double tr = coeff[n_coeff - 1].real();
  const double ti = coeff[n_coeff - 1].imag();
  for (std::size_t i = 0; i < n; ++i) {
    out_re[i] = tr;
    out_im[i] = ti;
  }
  for (std::size_t k = n_coeff - 1; k-- > 0;) {
    const double cr = coeff[k].real();
    const double ci = coeff[k].imag();
    double* __restrict ar = out_re;
    double* __restrict ai = out_im;
    const double* __restrict xr = s_re;
    const double* __restrict xi = s_im;
    for (std::size_t i = 0; i < n; ++i) {
      const double pr = ar[i];
      const double pi_ = ai[i];
      ar[i] = pr * xr[i] - pi_ * xi[i] + cr;
      ai[i] = pr * xi[i] + pi_ * xr[i] + ci;
    }
  }
}

void batch_rational_scalar(const cplx* num, std::size_t n_num,
                           const cplx* den, std::size_t n_den,
                           const double* s_re, const double* s_im,
                           std::size_t n, double* out_re, double* out_im,
                           double* tmp_re, double* tmp_im) {
  batch_horner_scalar(num, n_num, s_re, s_im, n, out_re, out_im);
  batch_horner_scalar(den, n_den, s_re, s_im, n, tmp_re, tmp_im);
  for (std::size_t i = 0; i < n; ++i) {
    rational_div_point(out_re[i], out_im[i], tmp_re[i], tmp_im[i]);
  }
}

void accumulate_pole_sums_scalar(const PoleSumTerm& term, double c,
                                 const double* s_re, const double* s_im,
                                 const double* e_re, const double* e_im,
                                 std::size_t n, double* acc_re,
                                 double* acc_im) {
  const bool factored = term.factored;
  for (std::size_t i = 0; i < n; ++i) {
    const cplx s{s_re[i], s_im[i]};
    const cplx e = factored ? cplx{e_re[i], e_im[i]} : cplx{0.0};
    pole_point_accumulate(term, c, s, e, acc_re[i], acc_im[i]);
  }
}

}  // namespace detail

void split_planes(const cplx* z, std::size_t n, double* re, double* im) {
  for (std::size_t i = 0; i < n; ++i) {
    re[i] = z[i].real();
    im[i] = z[i].imag();
  }
}

void join_planes(const double* re, const double* im, std::size_t n,
                 cplx* z) {
  for (std::size_t i = 0; i < n; ++i) z[i] = cplx{re[i], im[i]};
}

void batch_cexp(const double* z_re, const double* z_im, std::size_t n,
                double* out_re, double* out_im) {
  if (use_avx2()) {
    detail::batch_cexp_avx2(z_re, z_im, n, out_re, out_im);
  } else {
    detail::batch_cexp_scalar(z_re, z_im, n, out_re, out_im);
  }
}

void batch_horner(const cplx* coeff, std::size_t n_coeff,
                  const double* s_re, const double* s_im, std::size_t n,
                  double* out_re, double* out_im) {
  HTMPLL_ASSERT(n_coeff >= 1);
  if (use_avx2()) {
    detail::batch_horner_avx2(coeff, n_coeff, s_re, s_im, n, out_re,
                              out_im);
  } else {
    detail::batch_horner_scalar(coeff, n_coeff, s_re, s_im, n, out_re,
                                out_im);
  }
}

void batch_rational(const cplx* num, std::size_t n_num, const cplx* den,
                    std::size_t n_den, const double* s_re,
                    const double* s_im, std::size_t n, double* out_re,
                    double* out_im, double* tmp_re, double* tmp_im) {
  HTMPLL_ASSERT(n_num >= 1 && n_den >= 1);
  if (use_avx2()) {
    detail::batch_horner_avx2(num, n_num, s_re, s_im, n, out_re, out_im);
    detail::batch_horner_avx2(den, n_den, s_re, s_im, n, tmp_re, tmp_im);
    detail::batch_complex_div_avx2(n, out_re, out_im, tmp_re, tmp_im);
  } else {
    detail::batch_rational_scalar(num, n_num, den, n_den, s_re, s_im, n,
                                  out_re, out_im, tmp_re, tmp_im);
  }
}

void accumulate_pole_sums(const PoleSumTerm& term, double c,
                          const double* s_re, const double* s_im,
                          const double* e_re, const double* e_im,
                          std::size_t n, double* acc_re, double* acc_im) {
  HTMPLL_ASSERT(term.kmax >= 1 && term.kmax <= 4);
  if (use_avx2()) {
    detail::accumulate_pole_sums_avx2(term, c, s_re, s_im, e_re, e_im, n,
                                      acc_re, acc_im);
  } else {
    detail::accumulate_pole_sums_scalar(term, c, s_re, s_im, e_re, e_im,
                                        n, acc_re, acc_im);
  }
}

}  // namespace htmpll
