// Structure-of-arrays batch kernels for dense grid evaluation.
//
// Every figure sweep, stability search and noise integral in this repo
// reduces to evaluating scalar rational/transcendental expressions over
// thousands of complex frequencies.  The scalar code paths walk one
// point at a time through RationalFunction Horner recursion and call
// std::exp once per (channel, point).  These kernels flip the loop:
// coefficients stay in registers while a whole grid streams through
// split re/im planes, and the exponentials every coth/csch^2 aliasing
// kernel and ZOH shape prefactor need are derived from ONE exp(-sT)
// plane per grid (exp(-2u) = exp(-sT) exp(pT) for u = (pi/w0)(s - p),
// since T = 2pi/w0).
//
// Numerical contract: kernels agree with their scalar counterparts
// (Polynomial::operator(), RationalFunction::operator(), stable_coth /
// stable_csch2 via harmonic_pole_sum) to <= 1e-12 relative error.  The
// factorized exponential is guarded: near the poles/zeros of coth
// (|1 -+ e^{-2u}| small), where the product form would amplify rounding
// through catastrophic cancellation, the kernel recomputes exp(-2u)
// directly with the exact operation sequence of the scalar path, so the
// agreement holds even approaching the aliasing poles s = p + j n w0.
//
// Each kernel below dispatches once per process between the portable
// scalar loops and 4-lane AVX2+FMA variants -- see linalg/simd.hpp for
// the selection policy (compile option, HTMPLL_SIMD env override, CPUID
// probe) and the vector-path accuracy contract.
//
// The layer is pure math: no model knowledge, no allocation (callers
// own the planes), no locking (kernels write only caller-owned output).
#pragma once

#include <cstddef>

#include "htmpll/linalg/matrix.hpp"

namespace htmpll {

/// AoS complex vector -> split re/im planes.
void split_planes(const cplx* z, std::size_t n, double* re, double* im);

/// Split planes -> AoS complex vector.
void join_planes(const double* re, const double* im, std::size_t n,
                 cplx* z);

/// out = exp(z) elementwise: one real exp + sincos per point.
void batch_cexp(const double* z_re, const double* z_im, std::size_t n,
                double* out_re, double* out_im);

/// Horner evaluation of a dense polynomial (ascending complex
/// coefficients, n_coeff >= 1) over a grid.  The coefficient recursion
/// runs outermost so the inner loops over points are branch-free and
/// autovectorizable.
void batch_horner(const cplx* coeff, std::size_t n_coeff,
                  const double* s_re, const double* s_im, std::size_t n,
                  double* out_re, double* out_im);

/// out = num(s)/den(s) elementwise.  `tmp_re/tmp_im` are caller-owned
/// scratch planes of size n (the denominator evaluation).  Division is
/// the naive conjugate formula with a fallback to std::complex division
/// when |den|^2 leaves the safely representable range.
void batch_rational(const cplx* num, std::size_t n_num, const cplx* den,
                    std::size_t n_den, const double* s_re,
                    const double* s_im, std::size_t n, double* out_re,
                    double* out_im, double* tmp_re, double* tmp_im);

/// One partial-fraction pole term of an aliasing sum, compiled for
/// batched evaluation of sum_k r_k S_k(c (s - p)) with
/// S_k(x) = sum_m 1/(x + j m w0)^k expressed through coth/csch^2 of
/// u = c (s - p), c = pi/w0.
struct PoleSumTerm {
  cplx pole;            ///< p
  cplx exp_pole_t;      ///< exp(p T), T = 2 pi / w0 (used when factored)
  int kmax = 1;         ///< multiplicity; 1..4
  cplx residues[4] = {};  ///< residues[k-1] multiplies S_k
  /// False disables the exp(-sT) exp(pT) factorization for this pole
  /// (set at plan build when exp(p T) would over/underflow) -- every
  /// point then recomputes exp(-2u) directly, exactly like the scalar
  /// path.
  bool factored = true;
};

/// acc += sum_k residues[k-1] S_k(c (s - p)) elementwise over the grid.
/// `e_re/e_im` is the shared exp(-s T) plane (may be null iff
/// term.factored is false).  Accumulation order per point matches the
/// scalar AliasingSum::exact term loop.
void accumulate_pole_sums(const PoleSumTerm& term, double c,
                          const double* s_re, const double* s_im,
                          const double* e_re, const double* e_im,
                          std::size_t n, double* acc_re, double* acc_im);

}  // namespace htmpll
