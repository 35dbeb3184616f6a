// Scalar building blocks shared by the portable batch kernels
// (batch_kernels.cpp) and the guard/fallback lanes of the AVX2 kernels
// (batch_kernels_simd.cpp).
//
// The coth/csch^2 expressions are also the ones core/aliasing_sum.cpp
// (stable_coth / stable_csch2) evaluates: when a kernel recomputes
// exp(-2u) directly, the derived values match the scalar aliasing-sum
// path bit for bit.  Keeping them in ONE header is what lets the vector
// kernels promise scalar-identical behavior on their guard lanes.
#pragma once

#include <cmath>
#include <complex>

#include "htmpll/linalg/batch_kernels.hpp"
#include "htmpll/linalg/matrix.hpp"
#include "htmpll/obs/diag.hpp"

namespace htmpll::detail {

// Portable scalar kernel variants (batch_kernels.cpp) -- the numerical
// reference the runtime dispatch falls back to, and what the SIMD tests
// compare the vector path against.  The public kernels in
// batch_kernels.hpp select between these and the *_avx2 variants
// (batch_kernels_simd.hpp) once per process.

void batch_cexp_scalar(const double* z_re, const double* z_im,
                       std::size_t n, double* out_re, double* out_im);

void batch_horner_scalar(const cplx* coeff, std::size_t n_coeff,
                         const double* s_re, const double* s_im,
                         std::size_t n, double* out_re, double* out_im);

void batch_rational_scalar(const cplx* num, std::size_t n_num,
                           const cplx* den, std::size_t n_den,
                           const double* s_re, const double* s_im,
                           std::size_t n, double* out_re, double* out_im,
                           double* tmp_re, double* tmp_im);

void accumulate_pole_sums_scalar(const PoleSumTerm& term, double c,
                                 const double* s_re, const double* s_im,
                                 const double* e_re, const double* e_im,
                                 std::size_t n, double* acc_re,
                                 double* acc_im);

/// coth z from e = exp(-2z), |e| <= 1 (Re z >= 0).
inline cplx coth_from_e(cplx e) { return (1.0 + e) / (1.0 - e); }

inline cplx csch2_from_e(cplx e) {
  const cplx d = 1.0 - e;
  return 4.0 * e / (d * d);
}

/// coth z = 1/z + z/3 - z^3/45 + O(z^5)
inline cplx coth_series(cplx z) {
  const cplx z2 = z * z;
  return 1.0 / z + z * (1.0 / 3.0 - z2 / 45.0);
}

/// csch^2 z = 1/z^2 - 1/3 + z^2/15 + O(z^4)
inline cplx csch2_series(cplx z) {
  const cplx z2 = z * z;
  return 1.0 / z2 - 1.0 / 3.0 + z2 / 15.0;
}

inline bool cplx_finite(cplx z) {
  return std::isfinite(z.real()) && std::isfinite(z.imag());
}

/// The per-point (coth u, csch^2 u) evaluation of one pole term, with
/// the cancellation guards of the scalar accumulate_pole_sums loop.
/// `e` is the shared exp(-sT) value at this point (ignored when the
/// term is unfactored).  csch^2 is computed only when kmax >= 2.
inline void pole_point_ct_cs2(const PoleSumTerm& term, cplx u, cplx e,
                              cplx& ct, cplx& cs2) {
  const int kmax = term.kmax;
  ct = cplx{0.0};
  cs2 = cplx{0.0};
  if (std::norm(u) < 1e-6) {
    // |u| < 1e-3 within rounding of the scalar predicate; both sides
    // of the boundary agree to the series truncation error (~1e-15).
    ct = coth_series(u);
    if (kmax >= 2) cs2 = csch2_series(u);
  } else if (u.real() < 0.0) {
    // Rare branch (left of every pole's abscissa): evaluate exactly
    // like the scalar path, exp and all.
    const cplx zp = -u;
    const cplx e2 = std::exp(-2.0 * zp);
    ct = -coth_from_e(e2);
    if (kmax >= 2) cs2 = csch2_from_e(e2);
  } else {
    // Fast path: exp(-2u) = exp(-sT) exp(pT) from the shared plane.
    // Guard the cancellation-sensitive uses (coth pole at e2 = 1,
    // coth zero at e2 = -1) and non-finite products: there, fall back
    // to the scalar operation sequence so the agreement contract
    // holds arbitrarily close to the aliasing poles.
    cplx e2;
    bool direct = !term.factored;
    if (!direct) {
      e2 = e * term.exp_pole_t;
      const cplx d1 = 1.0 - e2;
      const cplx d2 = 1.0 + e2;
      direct = !cplx_finite(e2) || std::norm(d1) < 1e-4 ||
               std::norm(d2) < 1e-4;
      if (direct) {
        // A factored term fell back to the direct exp: record how close
        // to the aliasing pole the guard tripped (payload = |1 - e2|^2).
        obs::diag_event(obs::DiagReason::kPlanCancellationRecompute,
                        std::norm(d1));
      }
    }
    if (direct) e2 = std::exp(-2.0 * u);
    ct = coth_from_e(e2);
    if (kmax >= 2) cs2 = csch2_from_e(e2);
  }
}

/// One point of the batch_rational division loop: out = out / den with
/// the naive conjugate formula, deferring to std::complex division when
/// |den|^2 leaves the safely representable range.
inline void rational_div_point(double& out_re, double& out_im,
                               double den_re, double den_im) {
  const double nr = out_re;
  const double ni = out_im;
  const double dr = den_re;
  const double di = den_im;
  const double d2 = dr * dr + di * di;
  if (d2 >= 1e-290 && d2 <= 1e290) {
    const double inv = 1.0 / d2;
    out_re = (nr * dr + ni * di) * inv;
    out_im = (ni * dr - nr * di) * inv;
  } else {
    const cplx q = cplx{nr, ni} / cplx{dr, di};
    out_re = q.real();
    out_im = q.imag();
  }
}

/// One point of the accumulate_pole_sums loop:
/// acc += sum_k residues[k-1] S_k(c (s - p)), with the S_k assembled
/// from (coth, csch^2) exactly like harmonic_pole_sums and accumulated
/// in the scalar residue order.
inline void pole_point_accumulate(const PoleSumTerm& term, double c,
                                  cplx s, cplx e, double& acc_re,
                                  double& acc_im) {
  const cplx u = c * (s - term.pole);
  cplx ct;
  cplx cs2;
  pole_point_ct_cs2(term, u, e, ct, cs2);
  const int kmax = term.kmax;
  const double c2 = c * c;
  const double c3 = c * c * c;
  const double c4 = c * c * c * c / 3.0;
  cplx acc{acc_re, acc_im};
  acc += term.residues[0] * (c * ct);
  if (kmax >= 2) acc += term.residues[1] * (c2 * cs2);
  if (kmax >= 3) acc += term.residues[2] * (c3 * cs2 * ct);
  if (kmax >= 4) {
    acc += term.residues[3] * (c4 * (2.0 * cs2 * ct * ct + cs2 * cs2));
  }
  acc_re = acc.real();
  acc_im = acc.imag();
}

}  // namespace htmpll::detail
