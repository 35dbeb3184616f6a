// Internal declarations of the AVX2+FMA batch-kernel variants.
//
// Implemented in batch_kernels_simd.cpp with per-function target
// attributes (the TU itself is compiled for the baseline ISA, so merely
// linking the library never executes an AVX2 instruction); call them
// only after simd::active_isa() == Isa::kAvx2Fma.  When the build
// disables SIMD (-DHTMPLL_SIMD=OFF) or targets a non-x86 GCC-compatible
// toolchain, simd_kernels_compiled() is false and the entry points are
// stubs that throw std::logic_error (dispatch never selects them).
//
// Signature-for-signature these mirror the public kernels in
// batch_kernels.hpp; the numerical contract (<= 1e-12 relative vs the
// scalar kernels, exact scalar op sequence on guard/fallback lanes) is
// documented in linalg/simd.hpp.
#pragma once

#include <cstddef>

#include "htmpll/linalg/batch_kernels.hpp"

namespace htmpll::detail {

/// True when the vector kernels below are real code (x86-64 GCC/Clang
/// build with HTMPLL_SIMD=ON), not stubs.
bool simd_kernels_compiled();

/// CPUID probe for AVX2+FMA (false on stub builds).
bool simd_cpu_has_avx2_fma();

void batch_cexp_avx2(const double* z_re, const double* z_im, std::size_t n,
                     double* out_re, double* out_im);

void batch_horner_avx2(const cplx* coeff, std::size_t n_coeff,
                       const double* s_re, const double* s_im,
                       std::size_t n, double* out_re, double* out_im);

/// The elementwise division tail of batch_rational: out = out / den
/// with the same |den|^2 in [1e-290, 1e290] guard as the scalar loop
/// (out-of-range or non-finite lanes defer to std::complex division).
void batch_complex_div_avx2(std::size_t n, double* out_re, double* out_im,
                            const double* den_re, const double* den_im);

void accumulate_pole_sums_avx2(const PoleSumTerm& term, double c,
                               const double* s_re, const double* s_im,
                               const double* e_re, const double* e_im,
                               std::size_t n, double* acc_re,
                               double* acc_im);

}  // namespace htmpll::detail
