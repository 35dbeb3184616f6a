// SIMD batch-kernel contract tests.
//
// Two contracts are exercised against the scalar reference kernels
// (htmpll::detail::*_scalar):
//  * the vector dispatch path agrees to <= 1e-12 relative error on
//    every finite in-range grid (randomized property tests), and
//  * out-of-range / non-finite / guard-region lanes, tails shorter
//    than the lane width, and the forced-scalar dispatch are BIT
//    IDENTICAL to the scalar kernels (they run the exact scalar
//    operation sequence).
//
// Vector-path tests skip on builds without the AVX2 kernels or on CPUs
// without AVX2+FMA; the dispatch and forced-scalar tests always run.
#include <cmath>
#include <complex>
#include <cstring>
#include <limits>
#include <numbers>
#include <random>
#include <vector>

#include <gtest/gtest.h>

#include "htmpll/linalg/batch_kernels.hpp"
#include "htmpll/linalg/batch_kernels_detail.hpp"
#include "htmpll/linalg/simd.hpp"
#include "htmpll/noise/noise_detail.hpp"
#include "htmpll/util/grid.hpp"

namespace htmpll {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

bool vector_path_available() {
  return simd::compiled() && simd::cpu_has_avx2_fma();
}

/// RAII ISA pin so a failing ASSERT cannot leak a forced ISA into
/// later tests.
class ScopedIsa {
 public:
  explicit ScopedIsa(simd::Isa isa) : prev_(simd::active_isa()) {
    simd::set_isa(isa);
  }
  ~ScopedIsa() { simd::set_isa(prev_); }
  ScopedIsa(const ScopedIsa&) = delete;
  ScopedIsa& operator=(const ScopedIsa&) = delete;

 private:
  simd::Isa prev_;
};

/// Bitwise equality that treats NaN patterns as equal to themselves.
bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof(double)) == 0;
}

/// |got - want| <= tol * |want| with complex magnitudes (handles the
/// component-near-zero case that per-component relative error cannot).
void expect_rel(cplx got, cplx want, double tol, const char* what,
                std::size_t i) {
  const double scale = std::abs(want);
  if (scale == 0.0) {
    EXPECT_LE(std::abs(got), tol) << what << " i=" << i;
  } else {
    EXPECT_LE(std::abs(got - want), tol * scale) << what << " i=" << i;
  }
}

struct Planes {
  std::vector<double> re, im;
  explicit Planes(std::size_t n) : re(n), im(n) {}
};

// ---- dispatch ---------------------------------------------------------

TEST(SimdDispatch, CompiledMatchesBuildConfig) {
#ifdef HTMPLL_SIMD_COMPILED
  EXPECT_TRUE(simd::compiled());
#else
  EXPECT_FALSE(simd::compiled());
#endif
}

TEST(SimdDispatch, ActiveIsaIsStableAndValid) {
  const simd::Isa isa = simd::active_isa();
  EXPECT_EQ(isa, simd::active_isa());
  if (isa == simd::Isa::kAvx2Fma) {
    EXPECT_TRUE(vector_path_available());
  }
}

TEST(SimdDispatch, SetIsaRoundTrips) {
  const simd::Isa prev = simd::active_isa();
  simd::set_isa(simd::Isa::kScalar);
  EXPECT_EQ(simd::active_isa(), simd::Isa::kScalar);
  if (vector_path_available()) {
    simd::set_isa(simd::Isa::kAvx2Fma);
    EXPECT_EQ(simd::active_isa(), simd::Isa::kAvx2Fma);
  } else {
    EXPECT_THROW(simd::set_isa(simd::Isa::kAvx2Fma),
                 std::invalid_argument);
  }
  simd::set_isa(prev);
}

TEST(SimdDispatch, NamesAndLaneWidths) {
  EXPECT_STREQ(simd::isa_name(simd::Isa::kScalar), "scalar");
  EXPECT_STREQ(simd::isa_name(simd::Isa::kAvx2Fma), "avx2-fma");
  EXPECT_EQ(simd::lane_width(simd::Isa::kScalar), 1u);
  EXPECT_EQ(simd::lane_width(simd::Isa::kAvx2Fma), 4u);
}

// ---- forced-scalar dispatch is the scalar kernel, bit for bit ---------

TEST(SimdDispatch, ForcedScalarIsBitIdentical) {
  ScopedIsa pin(simd::Isa::kScalar);
  std::mt19937 rng(11u);
  std::uniform_real_distribution<double> u(-30.0, 30.0);
  const std::size_t n = 257;
  Planes z(n), got(n), want(n);
  for (std::size_t i = 0; i < n; ++i) {
    z.re[i] = u(rng);
    z.im[i] = u(rng) * 1e3;
  }
  batch_cexp(z.re.data(), z.im.data(), n, got.re.data(), got.im.data());
  detail::batch_cexp_scalar(z.re.data(), z.im.data(), n, want.re.data(),
                            want.im.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(same_bits(got.re[i], want.re[i])) << "i=" << i;
    EXPECT_TRUE(same_bits(got.im[i], want.im[i])) << "i=" << i;
  }
}

// ---- batch_cexp -------------------------------------------------------

TEST(SimdCexp, MatchesStdExpOnRandomGrids) {
  if (!vector_path_available()) GTEST_SKIP() << "no AVX2+FMA";
  ScopedIsa pin(simd::Isa::kAvx2Fma);
  std::mt19937 rng(17u);
  // Wide exponent coverage: |Re z| up to the full 708 range, |Im z| up
  // to the vector sincos limit.
  std::uniform_real_distribution<double> mag(-1.0, 1.0);
  const std::size_t n = 4096;
  Planes z(n), got(n);
  for (std::size_t i = 0; i < n; ++i) {
    z.re[i] = 708.0 * mag(rng);
    z.im[i] = 1e5 * mag(rng);
  }
  batch_cexp(z.re.data(), z.im.data(), n, got.re.data(), got.im.data());
  for (std::size_t i = 0; i < n; ++i) {
    const cplx want = std::exp(cplx{z.re[i], z.im[i]});
    expect_rel(cplx{got.re[i], got.im[i]}, want, 1e-12, "cexp", i);
  }
}

TEST(SimdCexp, EveryTailLengthAgrees) {
  if (!vector_path_available()) GTEST_SKIP() << "no AVX2+FMA";
  ScopedIsa pin(simd::Isa::kAvx2Fma);
  std::mt19937 rng(19u);
  std::uniform_real_distribution<double> u(-5.0, 5.0);
  for (std::size_t n = 0; n <= 13; ++n) {  // covers every n mod 4 tail
    Planes z(n), got(n), want(n);
    for (std::size_t i = 0; i < n; ++i) {
      z.re[i] = u(rng);
      z.im[i] = u(rng);
    }
    batch_cexp(z.re.data(), z.im.data(), n, got.re.data(),
               got.im.data());
    detail::batch_cexp_scalar(z.re.data(), z.im.data(), n,
                              want.re.data(), want.im.data());
    const std::size_t tail_start = n - n % 4;
    for (std::size_t i = 0; i < n; ++i) {
      expect_rel(cplx{got.re[i], got.im[i]},
                 cplx{want.re[i], want.im[i]}, 1e-12, "tail", i);
      if (i >= tail_start) {
        // Tail lanes run the exact scalar sequence.
        EXPECT_TRUE(same_bits(got.re[i], want.re[i])) << "n=" << n;
        EXPECT_TRUE(same_bits(got.im[i], want.im[i])) << "n=" << n;
      }
    }
  }
}

TEST(SimdCexp, LargeImaginaryFallsBackBitIdentical) {
  if (!vector_path_available()) GTEST_SKIP() << "no AVX2+FMA";
  ScopedIsa pin(simd::Isa::kAvx2Fma);
  std::mt19937 rng(23u);
  std::uniform_real_distribution<double> u(-1.0, 1.0);
  const std::size_t n = 64;
  Planes z(n), got(n), want(n);
  for (std::size_t i = 0; i < n; ++i) {
    z.re[i] = 3.0 * u(rng);
    z.im[i] = 1e9 * (1.0 + std::abs(u(rng)));  // beyond the 1e5 limit
  }
  batch_cexp(z.re.data(), z.im.data(), n, got.re.data(), got.im.data());
  detail::batch_cexp_scalar(z.re.data(), z.im.data(), n, want.re.data(),
                            want.im.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(same_bits(got.re[i], want.re[i])) << "i=" << i;
    EXPECT_TRUE(same_bits(got.im[i], want.im[i])) << "i=" << i;
  }
}

TEST(SimdCexp, LargeRealFallsBackBitIdentical) {
  if (!vector_path_available()) GTEST_SKIP() << "no AVX2+FMA";
  ScopedIsa pin(simd::Isa::kAvx2Fma);
  const std::size_t n = 8;
  Planes z(n), got(n), want(n);
  // Overflow, underflow-to-zero and subnormal-result magnitudes.
  const double res[8] = {710.0, -710.0, 800.0, -745.0,
                         -760.0, 709.1, -708.5, 1000.0};
  for (std::size_t i = 0; i < n; ++i) {
    z.re[i] = res[i];
    z.im[i] = 0.25 * static_cast<double>(i);
  }
  batch_cexp(z.re.data(), z.im.data(), n, got.re.data(), got.im.data());
  detail::batch_cexp_scalar(z.re.data(), z.im.data(), n, want.re.data(),
                            want.im.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(same_bits(got.re[i], want.re[i])) << "i=" << i;
    EXPECT_TRUE(same_bits(got.im[i], want.im[i])) << "i=" << i;
  }
}

TEST(SimdCexp, SubnormalArgumentsStayInContract) {
  if (!vector_path_available()) GTEST_SKIP() << "no AVX2+FMA";
  ScopedIsa pin(simd::Isa::kAvx2Fma);
  const double sub = std::numeric_limits<double>::denorm_min();
  const double tiny = std::numeric_limits<double>::min();
  const std::size_t n = 8;
  Planes z(n), got(n);
  const double vals[8] = {sub, -sub, tiny, -tiny,
                          1e-300, -1e-300, 0.0, -0.0};
  for (std::size_t i = 0; i < n; ++i) {
    z.re[i] = vals[i];
    z.im[i] = vals[(i + 3) % n];
  }
  batch_cexp(z.re.data(), z.im.data(), n, got.re.data(), got.im.data());
  for (std::size_t i = 0; i < n; ++i) {
    const cplx want = std::exp(cplx{z.re[i], z.im[i]});
    expect_rel(cplx{got.re[i], got.im[i]}, want, 1e-12, "subnormal", i);
  }
}

TEST(SimdCexp, NonFinitePropagationIsBitIdentical) {
  if (!vector_path_available()) GTEST_SKIP() << "no AVX2+FMA";
  ScopedIsa pin(simd::Isa::kAvx2Fma);
  // Mix non-finite lanes with in-range lanes inside the same blocks.
  const std::size_t n = 12;
  Planes z(n), got(n), want(n);
  const double re[12] = {kInf, 1.0, -kInf, kNaN, 0.5, kInf,
                         -1.0, kNaN, 2.0,  kInf, 0.0, -0.5};
  const double im[12] = {0.0, kNaN, 1.0, 2.0,  kInf, -kInf,
                         3.0, kNaN, 1.5, -1.0, kNaN, kInf};
  for (std::size_t i = 0; i < n; ++i) {
    z.re[i] = re[i];
    z.im[i] = im[i];
  }
  batch_cexp(z.re.data(), z.im.data(), n, got.re.data(), got.im.data());
  detail::batch_cexp_scalar(z.re.data(), z.im.data(), n, want.re.data(),
                            want.im.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(same_bits(got.re[i], want.re[i])) << "i=" << i;
    EXPECT_TRUE(same_bits(got.im[i], want.im[i])) << "i=" << i;
  }
}

// ---- batch_horner -----------------------------------------------------

TEST(SimdHorner, MatchesScalarOnRandomGrids) {
  if (!vector_path_available()) GTEST_SKIP() << "no AVX2+FMA";
  ScopedIsa pin(simd::Isa::kAvx2Fma);
  std::mt19937 rng(29u);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  for (std::size_t n_coeff : {1u, 2u, 3u, 5u, 9u}) {
    CVector coeff(n_coeff);
    for (auto& ck : coeff) ck = cplx{u(rng), u(rng)};
    for (std::size_t n : {1u, 4u, 63u, 64u, 1000u}) {
      Planes s(n), got(n), want(n);
      for (std::size_t i = 0; i < n; ++i) {
        s.re[i] = 3.0 * u(rng);
        s.im[i] = 3.0 * u(rng);
      }
      batch_horner(coeff.data(), n_coeff, s.re.data(), s.im.data(), n,
                   got.re.data(), got.im.data());
      detail::batch_horner_scalar(coeff.data(), n_coeff, s.re.data(),
                                  s.im.data(), n, want.re.data(),
                                  want.im.data());
      for (std::size_t i = 0; i < n; ++i) {
        expect_rel(cplx{got.re[i], got.im[i]},
                   cplx{want.re[i], want.im[i]}, 1e-12, "horner", i);
      }
    }
  }
}

TEST(SimdHorner, InfAndNanInputsStayNonFiniteLikeScalar) {
  if (!vector_path_available()) GTEST_SKIP() << "no AVX2+FMA";
  ScopedIsa pin(simd::Isa::kAvx2Fma);
  const CVector coeff{cplx{1.0, -0.5}, cplx{0.25, 2.0}, cplx{-1.0, 0.0}};
  const std::size_t n = 8;
  Planes s(n), got(n), want(n);
  const double re[8] = {kInf, 1.0, kNaN, -kInf, 0.5, kNaN, kInf, 2.0};
  for (std::size_t i = 0; i < n; ++i) {
    s.re[i] = re[i];
    s.im[i] = 0.5;
  }
  batch_horner(coeff.data(), coeff.size(), s.re.data(), s.im.data(), n,
               got.re.data(), got.im.data());
  detail::batch_horner_scalar(coeff.data(), coeff.size(), s.re.data(),
                              s.im.data(), n, want.re.data(),
                              want.im.data());
  // Horner is pure mul/add: FMA may merge an inf-inf differently, so
  // require matching finiteness classification, not matching payloads.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_EQ(std::isfinite(got.re[i]), std::isfinite(want.re[i]))
        << "i=" << i;
    EXPECT_EQ(std::isfinite(got.im[i]), std::isfinite(want.im[i]))
        << "i=" << i;
    if (std::isfinite(want.re[i])) {
      expect_rel(cplx{got.re[i], got.im[i]},
                 cplx{want.re[i], want.im[i]}, 1e-12, "horner-nan", i);
    }
  }
}

// ---- batch_rational ---------------------------------------------------

TEST(SimdRational, MatchesScalarOnRandomGrids) {
  if (!vector_path_available()) GTEST_SKIP() << "no AVX2+FMA";
  ScopedIsa pin(simd::Isa::kAvx2Fma);
  std::mt19937 rng(31u);
  std::uniform_real_distribution<double> u(-2.0, 2.0);
  const CVector num{cplx{1.0, 0.5}, cplx{0.3, -0.2}, cplx{u(rng), u(rng)}};
  const CVector den{cplx{0.7, -0.1}, cplx{u(rng), 0.0}, cplx{1.0, 0.0}};
  const std::size_t n = 777;
  Planes s(n), got(n), want(n), t1(n), t2(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.re[i] = 3.0 * u(rng);
    s.im[i] = 3.0 * u(rng);
  }
  batch_rational(num.data(), num.size(), den.data(), den.size(),
                 s.re.data(), s.im.data(), n, got.re.data(),
                 got.im.data(), t1.re.data(), t1.im.data());
  detail::batch_rational_scalar(num.data(), num.size(), den.data(),
                                den.size(), s.re.data(), s.im.data(), n,
                                want.re.data(), want.im.data(),
                                t2.re.data(), t2.im.data());
  for (std::size_t i = 0; i < n; ++i) {
    expect_rel(cplx{got.re[i], got.im[i]}, cplx{want.re[i], want.im[i]},
               1e-12, "rational", i);
  }
}

TEST(SimdRational, ExtremeDenominatorsDeferLikeScalar) {
  if (!vector_path_available()) GTEST_SKIP() << "no AVX2+FMA";
  ScopedIsa pin(simd::Isa::kAvx2Fma);
  // Drive |den(s)|^2 out of [1e-290, 1e290] with a constant-polynomial
  // denominator; the division must defer to std::complex exactly like
  // the scalar loop.
  for (const cplx d0 : {cplx{1e-200, 0.0}, cplx{1e200, 1e200},
                        cplx{0.0, 0.0}}) {
    const CVector num{cplx{1.0, 1.0}, cplx{0.5, -0.25}};
    const CVector den{d0};
    const std::size_t n = 9;
    Planes s(n), got(n), want(n), t1(n), t2(n);
    for (std::size_t i = 0; i < n; ++i) {
      s.re[i] = 0.1 * static_cast<double>(i);
      s.im[i] = 1.0;
    }
    batch_rational(num.data(), num.size(), den.data(), den.size(),
                   s.re.data(), s.im.data(), n, got.re.data(),
                   got.im.data(), t1.re.data(), t1.im.data());
    detail::batch_rational_scalar(num.data(), num.size(), den.data(),
                                  den.size(), s.re.data(), s.im.data(),
                                  n, want.re.data(), want.im.data(),
                                  t2.re.data(), t2.im.data());
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_TRUE(same_bits(got.re[i], want.re[i])) << "i=" << i;
      EXPECT_TRUE(same_bits(got.im[i], want.im[i])) << "i=" << i;
    }
  }
}

// ---- accumulate_pole_sums ---------------------------------------------

PoleSumTerm make_term(cplx pole, int kmax, double w0) {
  PoleSumTerm t;
  t.pole = pole;
  const double T = 2.0 * std::numbers::pi / w0;
  t.exp_pole_t = std::exp(pole * T);
  t.kmax = kmax;
  for (int k = 0; k < kmax; ++k) {
    t.residues[k] = cplx{0.3 + 0.1 * k, -0.2 + 0.05 * k};
  }
  return t;
}

TEST(SimdPoleSums, MatchesScalarOnJwAxisGrids) {
  if (!vector_path_available()) GTEST_SKIP() << "no AVX2+FMA";
  ScopedIsa pin(simd::Isa::kAvx2Fma);
  const double w0 = 2.0 * std::numbers::pi * 1e6;
  const double c = std::numbers::pi / w0;
  const double T = 2.0 * std::numbers::pi / w0;
  for (int kmax = 1; kmax <= 4; ++kmax) {
    const PoleSumTerm term =
        make_term(cplx{-0.05 * w0, 0.15 * w0}, kmax, w0);
    const std::size_t n = 501;
    Planes s(n), e(n), acc_v(n), acc_s(n);
    for (std::size_t i = 0; i < n; ++i) {
      const double w = (0.01 + 2.5 * static_cast<double>(i) /
                                   static_cast<double>(n)) *
                       w0;
      s.re[i] = 0.0;
      s.im[i] = w;
      const cplx es = std::exp(cplx{-s.re[i] * T, -s.im[i] * T});
      e.re[i] = es.real();
      e.im[i] = es.imag();
      acc_v.re[i] = acc_s.re[i] = 0.25;  // nonzero accumulator seed
      acc_v.im[i] = acc_s.im[i] = -0.125;
    }
    accumulate_pole_sums(term, c, s.re.data(), s.im.data(), e.re.data(),
                         e.im.data(), n, acc_v.re.data(),
                         acc_v.im.data());
    detail::accumulate_pole_sums_scalar(term, c, s.re.data(),
                                        s.im.data(), e.re.data(),
                                        e.im.data(), n, acc_s.re.data(),
                                        acc_s.im.data());
    for (std::size_t i = 0; i < n; ++i) {
      expect_rel(cplx{acc_v.re[i], acc_v.im[i]},
                 cplx{acc_s.re[i], acc_s.im[i]}, 1e-12, "pole-sum", i);
    }
  }
}

TEST(SimdPoleSums, GuardRegionsAreBitIdenticalToScalar) {
  if (!vector_path_available()) GTEST_SKIP() << "no AVX2+FMA";
  ScopedIsa pin(simd::Isa::kAvx2Fma);
  const double w0 = 2.0 * std::numbers::pi;
  const double c = std::numbers::pi / w0;
  const double T = 2.0 * std::numbers::pi / w0;
  const cplx pole{-0.1, 0.4 * w0};
  const PoleSumTerm term = make_term(pole, 4, w0);
  // Whole grid in guard territory: points at/near the pole (series
  // branch), left of the pole abscissa, and at the aliasing poles
  // where |1 - e^{-2u}| is tiny.  Every 4-block contains a guard lane,
  // so the vector kernel must run the scalar sequence throughout.
  const std::size_t n = 12;
  Planes s(n), e(n), acc_v(n), acc_s(n);
  const cplx pts[12] = {
      pole,
      pole + cplx{1e-9, 0.0},
      pole + cplx{0.0, 1e-9},
      pole + cplx{-0.5, 0.1},  // u.real() < 0
      pole + cplx{-2.0, 0.0},
      pole + cplx{0.0, w0},        // aliasing pole: u = j pi
      pole + cplx{1e-12, w0},      // hugs it
      pole + cplx{0.0, 2.0 * w0},  // next aliasing pole
      pole + cplx{0.0, 0.5 * w0},  // coth zero: u = j pi / 2
      pole + cplx{-1e-6, 0.25 * w0},
      pole + cplx{0.0, -w0},
      pole + cplx{1e-9, -0.5 * w0},
  };
  for (std::size_t i = 0; i < n; ++i) {
    s.re[i] = pts[i].real();
    s.im[i] = pts[i].imag();
    const cplx es = std::exp(-pts[i] * T);
    e.re[i] = es.real();
    e.im[i] = es.imag();
    acc_v.re[i] = acc_s.re[i] = 0.0;
    acc_v.im[i] = acc_s.im[i] = 0.0;
  }
  accumulate_pole_sums(term, c, s.re.data(), s.im.data(), e.re.data(),
                       e.im.data(), n, acc_v.re.data(), acc_v.im.data());
  detail::accumulate_pole_sums_scalar(term, c, s.re.data(), s.im.data(),
                                      e.re.data(), e.im.data(), n,
                                      acc_s.re.data(), acc_s.im.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(same_bits(acc_v.re[i], acc_s.re[i])) << "i=" << i;
    EXPECT_TRUE(same_bits(acc_v.im[i], acc_s.im[i])) << "i=" << i;
  }
}

TEST(SimdPoleSums, UnfactoredTermIsBitIdenticalToScalar) {
  if (!vector_path_available()) GTEST_SKIP() << "no AVX2+FMA";
  ScopedIsa pin(simd::Isa::kAvx2Fma);
  const double w0 = 2.0 * std::numbers::pi * 1e3;
  const double c = std::numbers::pi / w0;
  PoleSumTerm term = make_term(cplx{-0.02 * w0, 0.3 * w0}, 2, w0);
  term.factored = false;  // plane-free path; e planes may be null
  const std::size_t n = 37;
  Planes s(n), acc_v(n), acc_s(n);
  for (std::size_t i = 0; i < n; ++i) {
    s.re[i] = 0.0;
    s.im[i] = (0.05 + 0.1 * static_cast<double>(i)) * w0;
    acc_v.re[i] = acc_s.re[i] = 0.0;
    acc_v.im[i] = acc_s.im[i] = 0.0;
  }
  accumulate_pole_sums(term, c, s.re.data(), s.im.data(), nullptr,
                       nullptr, n, acc_v.re.data(), acc_v.im.data());
  detail::accumulate_pole_sums_scalar(term, c, s.re.data(), s.im.data(),
                                      nullptr, nullptr, n,
                                      acc_s.re.data(), acc_s.im.data());
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_TRUE(same_bits(acc_v.re[i], acc_s.re[i])) << "i=" << i;
    EXPECT_TRUE(same_bits(acc_v.im[i], acc_s.im[i])) << "i=" << i;
  }
}

// ---- noise fold kernel ------------------------------------------------

// The noise grid takes its H_00 plane from the eval plan, whose
// exp/sincos differ per ISA in the last bits, so the public grid
// differs across ISAs.  The fold kernel does not: under each ISA, the
// public grid must equal the other build of the kernel fed the plane
// that ISA's plan gives -- with all three sources and with each alone.
TEST(SimdNoiseFold, BaselineAndAvx2BuildsAgreeBitwise) {
  if (!vector_path_available()) GTEST_SKIP() << "no AVX2+FMA";
  const double w0 = 2.0 * std::numbers::pi;
  const PowerLawPsd ref{1e-14, 1e-13, 0.0};
  const PowerLawPsd vco{1e-16, 1e-12, 1e-8};
  const PowerLawPsd icp{1e-20, 1e-21, 1e-19};
  const PowerLawPsd none{};
  struct Sources {
    const char* what;
    PowerLawPsd ref, vco, icp;
  };
  const Sources sources[] = {{"total", ref, vco, icp},
                             {"reference", ref, none, none},
                             {"vco", none, vco, none},
                             {"charge pump", none, none, icp}};
  const SamplingPllModel dc_only(make_typical_loop(0.1 * w0, w0));
  const SamplingPllModel lptv(
      make_typical_loop(0.15 * w0, w0),
      HarmonicCoefficients::real_waveform(1.0, {cplx{0.2, -0.05}}));
  const auto expect_same = [](const std::vector<double>& a,
                              const std::vector<double>& b, const char* what,
                              std::size_t n) {
    ASSERT_EQ(a.size(), b.size()) << what;
    for (std::size_t i = 0; i < a.size(); ++i) {
      EXPECT_TRUE(same_bits(a[i], b[i]))
          << what << " n=" << n << " i=" << i << ": " << a[i] << " vs "
          << b[i];
    }
  };
  for (const SamplingPllModel* m : {&dc_only, &lptv}) {
    const NoiseAnalysis na(*m, 12);
    // Under each ISA, the public grid against the other build of the
    // kernel on that ISA's H_00 plane.
    const auto expect_builds_agree = [&](const std::vector<double>& w,
                                         const Sources& src) {
      CVector s(w.size());
      for (std::size_t i = 0; i < w.size(); ++i) s[i] = cplx{0.0, w[i]};
      for (const simd::Isa isa : {simd::Isa::kScalar, simd::Isa::kAvx2Fma}) {
        ScopedIsa pin(isa);
        const simd::Isa other = isa == simd::Isa::kScalar
                                    ? simd::Isa::kAvx2Fma
                                    : simd::Isa::kScalar;
        const CVector h00 = m->baseband_transfer_grid(s);
        expect_same(na.output_psd_grid(w, src.ref, src.vco, src.icp),
                    detail::fold_noise_grid(*m, na.fold_harmonics(), w,
                                            h00.data(), src.ref, src.vco,
                                            src.icp, other),
                    src.what, w.size());
      }
    };
    // A DC lane (w = 2 w0 folds onto DC at m = -2) for the DC-only ISF;
    // the LPTV taps are singular there, so that grid stays off it.
    const bool dc_lane = m->time_invariant_vco();
    for (const std::size_t n : {1u, 63u, 64u, 65u, 2049u}) {
      std::vector<double> w = logspace(1e-3 * w0, 3.3 * w0, n + 1);
      w.resize(n);
      if (dc_lane) w[n / 2] = 2.0 * w0;
      for (const Sources& src : sources) expect_builds_agree(w, src);
    }
    // The noise skirts under the first three reference spurs; offset 0
    // puts a DC lane on each harmonic.
    std::vector<double> skirts;
    for (int k = 1; k <= 3; ++k) {
      for (const double off : {-0.2, dc_lane ? 0.0 : -0.01, 0.07}) {
        skirts.push_back(k * w0 + off * w0);
      }
    }
    expect_builds_agree(skirts, sources[0]);
  }
}

}  // namespace
}  // namespace htmpll
