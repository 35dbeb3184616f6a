// Spectral propagator factory: agreement with the Van Loan/Pade oracle
// across step-length decades on the phase-augmented shape it
// diagonalizes, the closed forms and semigroup identity at the 2 GHz
// scale, and the Van Loan fallback for every other shape, a defective
// filter block and allow_spectral = false.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <numbers>
#include <random>
#include <stdexcept>
#include <vector>

#include "htmpll/linalg/eig.hpp"
#include "htmpll/linalg/spectral.hpp"
#include "htmpll/lti/loop_filter.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/timedomain/loop_filter_sim.hpp"

namespace htmpll {
namespace {

double max_abs_diff(const RMatrix& a, const RMatrix& b) {
  EXPECT_EQ(a.rows(), b.rows());
  EXPECT_EQ(a.cols(), b.cols());
  double m = 0.0;
  for (std::size_t i = 0; i < a.rows(); ++i) {
    for (std::size_t j = 0; j < a.cols(); ++j) {
      m = std::max(m, std::abs(a(i, j) - b(i, j)));
    }
  }
  return m;
}

bool bitwise_equal(const RMatrix& a, const RMatrix& b) {
  if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
  return a.empty() ||
         std::memcmp(a.data().data(), b.data().data(),
                     a.data().size() * sizeof(double)) == 0;
}

StepPropagator build(const PropagatorFactory& f, double h) {
  StepPropagator p;
  f.make_into(h, p);
  return p;
}

/// Every block of the factory's build equals make_propagator bit for
/// bit (the Van Loan fallback).
void expect_van_loan_bitwise(const PropagatorFactory& f, const RMatrix& a,
                             const RMatrix& b, double h) {
  const StepPropagator s = build(f, h);
  const StepPropagator p = make_propagator(a, b, h);
  EXPECT_TRUE(bitwise_equal(s.phi0, p.phi0)) << "h = " << h;
  EXPECT_TRUE(bitwise_equal(s.gamma1, p.gamma1)) << "h = " << h;
  EXPECT_TRUE(bitwise_equal(s.gamma2, p.gamma2)) << "h = " << h;
}

/// Worst absolute Phi/Gamma1 difference between the factory and the
/// direct Van Loan path, normalized per block by its max magnitude.
double worst_block_error(const PropagatorFactory& f, const RMatrix& a,
                         const RMatrix& b, double h) {
  const StepPropagator s = build(f, h);
  const StepPropagator p = make_propagator(a, b, h);
  EXPECT_TRUE(s.gamma2.empty());
  return std::max(max_abs_diff(s.phi0, p.phi0) /
                      std::max(1.0, p.phi0.max_abs()),
                  max_abs_diff(s.gamma1, p.gamma1) /
                      std::max(1e-300, p.gamma1.max_abs()));
}

/// Random phase-augmented system [[A_f, 0], [c^T, 0]] with one input:
/// a stable n-1 filter block, a theta row and an input column.
void random_augmented(std::mt19937& rng, std::size_t n, RMatrix& a,
                      RMatrix& b) {
  std::uniform_real_distribution<double> entry(-1.0, 1.0);
  a = RMatrix(n, n);
  for (std::size_t i = 0; i + 1 < n; ++i) {
    for (std::size_t j = 0; j + 1 < n; ++j) a(i, j) = entry(rng);
    a(i, i) -= 2.0;
  }
  for (std::size_t j = 0; j + 1 < n; ++j) a(n - 1, j) = entry(rng);
  b = RMatrix(n, 1);
  for (std::size_t i = 0; i < n; ++i) b(i, 0) = entry(rng);
}

/// Well-scaled phase-augmented system: a damped pair feeding theta.
const RMatrix kAugA{{-0.3, 1.0, 0.0}, {-1.0, -0.5, 0.0}, {0.7, 0.2, 0.0}};
const RMatrix kAugB{{0.1}, {1.0}, {0.4}};

TEST(SpectralPropagator, NonAugmentedSystemBuildsVanLoanBitwise) {
  // Well-scaled stable system with one real pole and a complex pair but
  // no trailing zero column: the factory has no modal build for it.
  const RMatrix a{{-0.4, 1.0, 0.0},
                  {-1.0, -0.4, 0.2},
                  {0.0, 0.0, -2.0}};
  const RMatrix b{{0.0}, {1.0}, {0.5}};
  PropagatorFactory f(a, b);
  EXPECT_FALSE(f.is_spectral());
  EXPECT_TRUE(f.spectral_requested());
  for (double h = 1e-3; h <= 10.0 + 1e-9; h *= 10.0) {
    expect_van_loan_bitwise(f, a, b, h);
  }
}

TEST(SpectralPropagator, MatchesPadeOnRandomStableSystems) {
  // n = 2..6 puts the filter block at 1..5 modes, both sides of
  // modal_cexp's scalar tail (below 4) and the batch_cexp width.
  std::mt19937 rng(77u);
  int spectral_seen = 0;
  int wide_seen = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial % 5);
    RMatrix a, b;
    random_augmented(rng, n, a, b);
    PropagatorFactory f(a, b);
    if (!f.is_spectral()) continue;  // rare ill-conditioned draws
    ++spectral_seen;
    if (n - 1 >= 4) ++wide_seen;
    for (double h : {1e-2, 1e-1, 1.0, 4.0}) {
      EXPECT_LT(worst_block_error(f, a, b, h), 1e-12)
          << "trial " << trial << " n " << n << " h " << h;
    }
  }
  EXPECT_GT(spectral_seen, 40);
  EXPECT_GT(wide_seen, 15);
}

TEST(SpectralPropagator, StructuredModeMatchesPadeAcrossFourDecades) {
  // Trailing zero column (integrated last state) on a WELL-SCALED
  // system, so the Pade reference is trustworthy and directly validates
  // the structured theta-row formulas (the h phi1 / h^2 phi2 modal
  // sums) to full precision.
  PropagatorFactory f(kAugA, kAugB);
  ASSERT_TRUE(f.is_spectral());
  for (double h = 1e-3; h <= 10.0 + 1e-9; h *= 10.0) {
    EXPECT_LT(worst_block_error(f, kAugA, kAugB, h), 1e-12) << "h = " << h;
  }
}

TEST(SpectralPropagator, AugmentedLoopUsesStructuredMode) {
  const double w0 = 2.0 * std::numbers::pi * 2e9;
  const PllParameters p = make_typical_loop(0.1 * w0, w0);
  const StateSpace aug =
      augment_with_phase(to_state_space(p.filter.impedance()), p.kvco);
  PropagatorFactory f(aug.a, aug.b);
  EXPECT_TRUE(f.is_spectral());
  EXPECT_TRUE(f.spectral_requested());
  EXPECT_LT(f.vector_condition(), PropagatorFactory::kMaxCondition);
}

TEST(SpectralPropagator, AugmentedLoopMatchesExactTriangularEntries) {
  // The typical loop's filter block is triangular, so several propagator
  // entries have closed forms.  The spectral path must hit them to full
  // precision; the Pade reference CANNOT be used here, because the
  // Van Loan matrix has entries ~1e18 and scaling-and-squaring leaves an
  // absolute error floor of ~eps * ||M|| ~ 1e-8 in its O(1) entries.
  const double w0 = 2.0 * std::numbers::pi * 2e9;
  const PllParameters p = make_typical_loop(0.1 * w0, w0);
  const StateSpace aug =
      augment_with_phase(to_state_space(p.filter.impedance()), p.kvco);
  ASSERT_EQ(aug.a(0, 1), 1.0);  // companion structure assumed below
  const double wp = -aug.a(1, 1);
  PropagatorFactory f(aug.a, aug.b);
  ASSERT_TRUE(f.is_spectral());
  for (double h : {1e-12, 1e-11, 1e-10, 1e-9}) {
    const StepPropagator s = build(f, h);
    // x1' = -wp x1 decouples: phi0(1,1) = e^{-wp h} exactly.
    EXPECT_NEAR(s.phi0(1, 1), std::exp(-wp * h), 1e-13 * std::exp(-wp * h))
        << "h = " << h;
    // theta never feeds back: last column is the unit vector e_theta.
    EXPECT_EQ(s.phi0(0, 2), 0.0);
    EXPECT_EQ(s.phi0(1, 2), 0.0);
    EXPECT_EQ(s.phi0(2, 2), 1.0);
  }
}

TEST(SpectralPropagator, AugmentedLoopSatisfiesSemigroupProperty) {
  // Numerics check at the real PLL scale (state-matrix entries ~1e18):
  // one spectral step of length h must equal 64 spectral steps of h/64
  // composed in state space under the held charge-pump current.  The
  // exact solution satisfies this semigroup identity; a wrong phi
  // coefficient anywhere breaks it because the defect scales
  // differently with the slice length.
  const double w0 = 2.0 * std::numbers::pi * 2e9;
  const PllParameters p = make_typical_loop(0.1 * w0, w0);
  const StateSpace aug =
      augment_with_phase(to_state_space(p.filter.impedance()), p.kvco);
  PropagatorFactory f(aug.a, aug.b);
  ASSERT_TRUE(f.is_spectral());
  const double h = 5e-10;
  const int slices = 64;
  const StepPropagator fine = build(f, h / slices);
  const StepPropagator coarse = build(f, h);
  const double u = 1e-3;  // held charge-pump current
  RVector x(aug.a.rows(), 0.0);
  x[0] = 1e-9;  // charge on the integrating capacitor
  RVector x_fine = x, next;
  for (int i = 0; i < slices; ++i) {
    fine.advance_into(x_fine, u, u, h / slices, next);
    x_fine.swap(next);
  }
  RVector x_coarse;
  coarse.advance_into(x, u, u, h, x_coarse);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double scale = std::max(std::abs(x_fine[i]), 1e-300);
    EXPECT_LT(std::abs(x_coarse[i] - x_fine[i]) / scale, 1e-12)
        << "state " << i;
  }
}

TEST(SpectralPropagator, DefectiveMatrixFallsBackToPadeBitwise) {
  // Phase-augmented shape whose filter block is a Jordan block: the
  // factory factors the block, finds it defective and falls back.
  const RMatrix a{{0.0, 1.0, 0.0}, {0.0, 0.0, 0.0}, {1.0, 0.0, 0.0}};
  const RMatrix b{{0.0}, {1.0}, {0.0}};
  const bool was = obs::enabled();
  obs::enable();
  obs::Counter& factorizations = obs::counter("linalg.eig_factorizations");
  const std::uint64_t before = factorizations.value();
  PropagatorFactory f(a, b);
  const std::uint64_t after = factorizations.value();
  if (!was) obs::disable();
  EXPECT_EQ(after - before, 1u);  // the factorization really ran
  EXPECT_FALSE(f.is_spectral());
  EXPECT_TRUE(f.spectral_requested());
  for (double h : {0.25, 2.0}) expect_van_loan_bitwise(f, a, b, h);
}

TEST(SpectralPropagator, AllowSpectralFalseForcesPadeBitwise) {
  ASSERT_TRUE(PropagatorFactory(kAugA, kAugB).is_spectral());
  PropagatorFactory f(kAugA, kAugB, /*allow_spectral=*/false);
  EXPECT_FALSE(f.is_spectral());
  EXPECT_FALSE(f.spectral_requested());
  for (double h : {1e-3, 0.1, 2.0}) expect_van_loan_bitwise(f, kAugA, kAugB, h);
}

TEST(SpectralPropagator, TwoInputSystemBuildsVanLoanBitwise) {
  // The augmented shape with a second input column has no modal build.
  const RMatrix b{{0.1, 0.0}, {1.0, 0.3}, {0.4, -0.2}};
  PropagatorFactory f(kAugA, b);
  EXPECT_FALSE(f.is_spectral());
  EXPECT_TRUE(f.spectral_requested());
  for (double h : {1e-2, 0.5, 3.0}) expect_van_loan_bitwise(f, kAugA, b, h);
}

TEST(SpectralPropagator, AutonomousSystem) {
  PropagatorFactory f(kAugA, RMatrix{});
  EXPECT_FALSE(f.is_spectral());
  for (double h : {1e-2, 1.0}) {
    expect_van_loan_bitwise(f, kAugA, RMatrix{}, h);
    EXPECT_TRUE(build(f, h).gamma1.empty());
  }
}

TEST(SpectralPropagator, WarmRebuildMatchesFreshBuildBitwise) {
  // Every integrator memo rebuilds its propagator in place, into
  // storage that last held another step -- or, after a Van Loan build,
  // a Gamma2 block.  The warm rebuild must equal a fresh build bit for
  // bit on random systems spanning both phi branch regimes and the
  // sub/above-4 mode widths, and at the 2 GHz loop's step lengths.
  std::mt19937 rng(1234u);
  std::uniform_real_distribution<double> loghd(-3.0, 1.0);
  int spectral_seen = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng() % 5);
    RMatrix a, b;
    random_augmented(rng, n, a, b);
    PropagatorFactory f(a, b);
    if (!f.is_spectral()) continue;  // rare ill-conditioned draws
    ++spectral_seen;
    StepPropagator warm = make_propagator(a, b, 0.3);  // stale Gamma2
    for (int k = 0; k < 4; ++k) {
      const double h = std::pow(10.0, loghd(rng));
      f.make_into(h, warm);
      const StepPropagator fresh = build(f, h);
      EXPECT_TRUE(bitwise_equal(warm.phi0, fresh.phi0))
          << "trial " << trial << " h " << h;
      EXPECT_TRUE(bitwise_equal(warm.gamma1, fresh.gamma1))
          << "trial " << trial << " h " << h;
      EXPECT_TRUE(warm.gamma2.empty());
    }
  }
  EXPECT_GT(spectral_seen, 50);

  // The real PLL loop: near-zero integrator pole (tiny-argument fast
  // paths) at hardware step lengths.
  const double w0 = 2.0 * std::numbers::pi * 2e9;
  const PllParameters p = make_typical_loop(0.1 * w0, w0);
  const StateSpace aug =
      augment_with_phase(to_state_space(p.filter.impedance()), p.kvco);
  PropagatorFactory fpll(aug.a, aug.b);
  ASSERT_TRUE(fpll.is_spectral());
  StepPropagator warm;
  std::uniform_real_distribution<double> loghp(-12.0, -8.0);
  for (int k = 0; k < 40; ++k) {
    const double h = std::pow(10.0, loghp(rng));
    fpll.make_into(h, warm);
    const StepPropagator fresh = build(fpll, h);
    EXPECT_TRUE(bitwise_equal(warm.phi0, fresh.phi0)) << "h " << h;
    EXPECT_TRUE(bitwise_equal(warm.gamma1, fresh.gamma1)) << "h " << h;
  }
}

TEST(SpectralPropagator, LastRowFastPathMatchesFullAdvanceBitwise) {
  // propagate_last_row_many replaces the O(n^2) build + advance with a
  // modal theta-row contraction per offset; the record paths lean on it
  // being bit-identical to make_into + advance_into for every h the
  // samplers request.  Each case's step-length range puts |lambda h| on
  // both sides of the phi series/quotient switch at 0.5, and the 4-mode
  // system takes the batch_cexp branch.
  std::mt19937 rng(4321u);
  std::uniform_real_distribution<double> entry(-1.0, 1.0);

  const double w0 = 2.0 * std::numbers::pi * 2e9;
  const PllParameters p = make_typical_loop(0.1 * w0, w0);
  const StateSpace aug =
      augment_with_phase(to_state_space(p.filter.impedance()), p.kvco);
  const RMatrix small_a{{-0.3, 1.0, 0.0},
                        {-1.0, -0.5, 0.0},
                        {0.7, 0.2, 0.0}};
  const RMatrix small_b{{0.1}, {1.0}, {0.4}};
  const RMatrix quad_a{{-0.3, 1.0, 0.0, 0.0, 0.0},
                       {-1.0, -0.5, 0.2, 0.0, 0.0},
                       {0.0, 0.0, -2.0, 0.5, 0.0},
                       {0.1, 0.0, 0.0, -0.8, 0.0},
                       {0.7, 0.2, 0.3, 0.1, 0.0}};
  const RMatrix quad_b{{0.1}, {1.0}, {0.5}, {0.2}, {0.4}};
  struct Case {
    PropagatorFactory f;
    double logh_lo, logh_hi, xscale;
  };
  Case cases[] = {{PropagatorFactory(aug.a, aug.b), -12.0, -8.0, 1e-9},
                  {PropagatorFactory(small_a, small_b), -3.0, 1.0, 1.0},
                  {PropagatorFactory(quad_a, quad_b), -3.0, 1.0, 1.0}};
  const auto same = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  for (Case& c : cases) {
    ASSERT_TRUE(c.f.is_spectral());
    const std::size_t n = c.f.order();
    RVector x(n), out(n);
    StepPropagator prop;
    const auto full_last = [&](double h, double u) {
      c.f.make_into(h, prop);
      prop.advance_into(x, u, u, h, out);
      return out[n - 1];
    };
    std::uniform_real_distribution<double> logh(c.logh_lo, c.logh_hi);
    // One offset per call, each with its own state and input.
    for (int k = 0; k < 60; ++k) {
      const double h = std::pow(10.0, logh(rng));
      for (std::size_t i = 0; i < n; ++i) x[i] = entry(rng) * c.xscale;
      const double u = entry(rng) * 1e-3;
      double fast = 0.0;
      c.f.propagate_last_row_many(&h, 1, x.data(), u, &fast);
      const double full = full_last(h, u);
      EXPECT_TRUE(same(fast, full))
          << "n " << n << " h " << h << " fast " << fast << " full " << full;
    }
    // The record paths' shape: a segment's 60 offsets in one call
    // sharing state and input, an offset of 0 among them.
    std::vector<double> hs(61);
    for (double& h : hs) h = std::pow(10.0, logh(rng));
    hs[30] = 0.0;
    for (std::size_t i = 0; i < n; ++i) x[i] = entry(rng) * c.xscale;
    const double u = entry(rng) * 1e-3;
    std::vector<double> got(hs.size());
    c.f.propagate_last_row_many(hs.data(), hs.size(), x.data(), u,
                                got.data());
    for (std::size_t k = 0; k < hs.size(); ++k) {
      const double want = hs[k] == 0.0 ? x[n - 1] : full_last(hs[k], u);
      EXPECT_TRUE(same(got[k], want))
          << "n " << n << " offset " << k << " h " << hs[k];
    }
    double unused = 0.0;
    for (double bad : {-1e-3, std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
      EXPECT_THROW(
          c.f.propagate_last_row_many(&bad, 1, x.data(), u, &unused),
          std::invalid_argument);
    }
  }
}

TEST(SpectralPropagator, PhiShortcutIdentitiesMatchLibraryOps) {
  // Randomized differential pins for the floating-point identities the
  // phi1/phi2 shortcuts rely on.  Each check replicates the exact flop
  // DAG of the production shortcut and of the library op sequence it
  // replaces, and demands bitwise agreement.
  std::mt19937_64 rng(99u);
  std::uniform_real_distribution<double> expo_tiny(-320.0, -60.01);
  std::uniform_real_distribution<double> expo_series(-59.99, -1.01);
  std::uniform_real_distribution<double> mant(1.0, 2.0);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  const auto same = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };

  // exp(x) == 1.0 exactly below 2^-60 (modal_cexp's integrator-pole
  // elision), and the real-axis cexp collapse m*cos(+-0) == m,
  // m*sin(+-0) == m*(+-0).
  for (int i = 0; i < 50000; ++i) {
    const double x = std::copysign(
        std::ldexp(mant(rng),
                   static_cast<int>(std::floor(expo_tiny(rng)))),
        uni(rng));
    ASSERT_LT(std::fabs(x), 0x1p-60);
    EXPECT_EQ(std::exp(x), 1.0);
    const double m = std::exp(uni(rng) * 5.0);
    const double zi = std::copysign(0.0, uni(rng));
    EXPECT_TRUE(same(m * std::cos(zi), m));
    EXPECT_TRUE(same(m * std::sin(zi), m * zi));
  }
  EXPECT_EQ(std::exp(0.0), 1.0);
  EXPECT_EQ(std::exp(-0.0), 1.0);

  // Real-axis series Horner vs the complex-Horner DAG, 2^-60 <= |zr|
  // < 0.5, both signs of zr and of the zero imaginary part.
  double inv_fact[17];
  double fct = 6.0;
  for (int j = 0; j <= 16; ++j) {
    inv_fact[j] = 1.0 / fct;
    fct *= static_cast<double>(j + 4);
  }
  for (int i = 0; i < 200000; ++i) {
    double zr = std::ldexp(mant(rng), static_cast<int>(expo_series(rng)));
    if (zr >= 0.5) continue;
    zr = std::copysign(zr, uni(rng));
    const double zi = std::copysign(0.0, uni(rng));
    // Reference: the exact complex-Horner flop DAG.
    double ar = 0.0, ai = 0.0;
    for (int j = 16; j >= 0; --j) {
      const double tr = ar * zr - ai * zi;
      ai = ar * zi + ai * zr;
      ar = tr + inv_fact[j];
    }
    const double rp2r = (zr * ar - zi * ai) + 0.5;
    const double rp2i = zr * ai + zi * ar;
    const double rp1r = (zr * rp2r - zi * rp2i) + 1.0;
    const double rp1i = zr * rp2i + zi * rp2r;
    // Shortcut: real Horner + closed-form signed zeros.
    double a = 0.0;
    for (int j = 16; j >= 0; --j) a = a * zr + inv_fact[j];
    const double sai = (std::signbit(zi) && std::signbit(zr)) ? -0.0 : 0.0;
    const double sp2r = zr * a + 0.5;
    const double sp2i = zr * sai + zi * a;
    const double sp1r = zr * sp2r + 1.0;
    const double sp1i = zr * sp2i + zi * sp2r;
    EXPECT_TRUE(same(sp1r, rp1r) && same(sp1i, rp1i) &&
                same(sp2r, rp2r) && same(sp2i, rp2i))
        << "zr " << zr << " zi " << (std::signbit(zi) ? "-0" : "+0");
  }

  // Quotient shortcut (Smith step with ratio = 0) vs the library
  // complex division, real z with 0.5 <= |z| <= 50.
  for (int i = 0; i < 200000; ++i) {
    const double zr = std::copysign(0.5 + 49.5 * std::fabs(uni(rng)),
                                    uni(rng));
    const double zi = std::copysign(0.0, uni(rng));
    const cplx z{zr, zi};
    const double m = std::exp(zr);
    const cplx ez{m, m * zi};
    // Reference: library division DAG of the production fallback.
    const cplx rphi1 = (ez - 1.0) / z;
    const cplx rphi2 = (rphi1 - 1.0) / z;
    // Shortcut DAG.
    const double c = zr, d = zi;
    const double ratio = d / c;
    const double a1 = ez.real() - 1.0, b1 = ez.imag();
    const double denom = c + d * ratio;
    const double p1r = (a1 + b1 * ratio) / denom;
    const double p1i = (b1 - a1 * ratio) / denom;
    const double a2 = p1r - 1.0;
    const double p2r = (a2 + p1i * ratio) / denom;
    const double p2i = (p1i - a2 * ratio) / denom;
    EXPECT_TRUE(same(p1r, rphi1.real()) && same(p1i, rphi1.imag()) &&
                same(p2r, rphi2.real()) && same(p2i, rphi2.imag()))
        << "zr " << zr;
  }
}

TEST(SpectralPropagator, RejectsBadArguments) {
  EXPECT_THROW(PropagatorFactory(RMatrix(2, 3), RMatrix{}),
               std::invalid_argument);
  EXPECT_THROW(PropagatorFactory(RMatrix(2, 2), RMatrix(3, 1)),
               std::invalid_argument);
  // Both the modal build and the Van Loan fallback take a finite h > 0.
  for (const PropagatorFactory& f :
       {PropagatorFactory(kAugA, kAugB),
        PropagatorFactory(RMatrix{{-1.0}}, RMatrix{{1.0}})}) {
    StepPropagator p;
    for (double h : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
      EXPECT_THROW(f.make_into(h, p), std::invalid_argument) << h;
    }
  }
}

}  // namespace
}  // namespace htmpll
