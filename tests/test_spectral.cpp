// Spectral propagator factory: agreement with the Van Loan/Pade path
// across step-length decades, structured handling of the phase-augmented
// (defective) PLL state matrix, and the fallback + kill-switch contracts
// the transient engine depends on.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <numbers>
#include <random>
#include <stdexcept>
#include <vector>

#include "htmpll/linalg/eig.hpp"
#include "htmpll/linalg/spectral.hpp"
#include "htmpll/lti/loop_filter.hpp"
#include "htmpll/timedomain/loop_filter_sim.hpp"

namespace htmpll {
namespace {

/// Pins the process-wide spectral switch for the duration of a test.
struct ScopedSpectral {
  bool was = spectral::enabled();
  explicit ScopedSpectral(bool on) { spectral::set_enabled(on); }
  ~ScopedSpectral() { spectral::set_enabled(was); }
};

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

/// Worst absolute propagator-block difference between the factory and
/// the direct Van Loan path, normalized per block by its max magnitude.
double worst_block_error(const PropagatorFactory& f, const RMatrix& a,
                         const RMatrix& b, double h) {
  const StepPropagator s = f.make(h);
  const StepPropagator p = make_propagator(a, b, h);
  double worst = max_abs_diff(s.phi0, p.phi0) /
                 std::max(1.0, p.phi0.max_abs());
  if (!p.gamma1.empty()) {
    worst = std::max(worst, max_abs_diff(s.gamma1, p.gamma1) /
                                std::max(1e-300, p.gamma1.max_abs()));
    worst = std::max(worst, max_abs_diff(s.gamma2, p.gamma2) /
                                std::max(1e-300, p.gamma2.max_abs()));
  }
  return worst;
}

TEST(SpectralPropagator, MatchesPadeAcrossFourDecades) {
  ScopedSpectral pin(true);
  // Well-scaled stable system with one real pole and a complex pair.
  const RMatrix a{{-0.4, 1.0, 0.0},
                  {-1.0, -0.4, 0.2},
                  {0.0, 0.0, -2.0}};
  const RMatrix b{{0.0}, {1.0}, {0.5}};
  PropagatorFactory f(a, b);
  ASSERT_EQ(f.mode(), PropagatorFactory::Mode::kSpectral);
  EXPECT_LT(f.vector_condition(), 100.0);
  for (double h = 1e-3; h <= 10.0 + 1e-9; h *= 10.0) {
    EXPECT_LT(worst_block_error(f, a, b, h), 1e-12) << "h = " << h;
  }
}

TEST(SpectralPropagator, MatchesPadeOnRandomStableSystems) {
  ScopedSpectral pin(true);
  std::mt19937 rng(77u);
  std::uniform_real_distribution<double> entry(-1.0, 1.0);
  int spectral_seen = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 4);
    RMatrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = entry(rng);
      a(i, i) -= 2.0;
    }
    RMatrix b(n, 1);
    for (std::size_t i = 0; i < n; ++i) b(i, 0) = entry(rng);
    PropagatorFactory f(a, b);
    if (!f.is_spectral()) continue;  // rare ill-conditioned draws
    ++spectral_seen;
    for (double h : {1e-2, 1e-1, 1.0, 4.0}) {
      EXPECT_LT(worst_block_error(f, a, b, h), 1e-12)
          << "trial " << trial << " h " << h;
    }
  }
  EXPECT_GT(spectral_seen, 40);
}

TEST(SpectralPropagator, StructuredModeMatchesPadeAcrossFourDecades) {
  ScopedSpectral pin(true);
  // Trailing zero column (integrated last state) on a WELL-SCALED
  // system, so the Pade reference is trustworthy and directly validates
  // the structured theta-row formulas (the h^2 phi2 / h^3 phi3 modal
  // sums) to full precision.
  const RMatrix a{{-0.3, 1.0, 0.0},
                  {-1.0, -0.5, 0.0},
                  {0.7, 0.2, 0.0}};
  const RMatrix b{{0.1}, {1.0}, {0.4}};
  PropagatorFactory f(a, b);
  ASSERT_EQ(f.mode(), PropagatorFactory::Mode::kSpectralAugmented);
  for (double h = 1e-3; h <= 10.0 + 1e-9; h *= 10.0) {
    EXPECT_LT(worst_block_error(f, a, b, h), 1e-12) << "h = " << h;
  }
}

TEST(SpectralPropagator, AugmentedLoopUsesStructuredMode) {
  ScopedSpectral pin(true);
  const double w0 = 2.0 * std::numbers::pi * 2e9;
  const PllParameters p = make_typical_loop(0.1 * w0, w0);
  const StateSpace aug =
      augment_with_phase(to_state_space(p.filter.impedance()), p.kvco);
  PropagatorFactory f(aug.a, aug.b);
  EXPECT_EQ(f.mode(), PropagatorFactory::Mode::kSpectralAugmented);
  EXPECT_TRUE(f.is_spectral());
  EXPECT_TRUE(f.spectral_requested());
  EXPECT_LT(f.vector_condition(), PropagatorFactory::kDefaultMaxCondition);
}

TEST(SpectralPropagator, AugmentedLoopMatchesExactTriangularEntries) {
  // The typical loop's filter block is triangular, so several propagator
  // entries have closed forms.  The spectral path must hit them to full
  // precision; the Pade reference CANNOT be used here, because the
  // Van Loan matrix has entries ~1e18 and scaling-and-squaring leaves an
  // absolute error floor of ~eps * ||M|| ~ 1e-8 in its O(1) entries.
  ScopedSpectral pin(true);
  const double w0 = 2.0 * std::numbers::pi * 2e9;
  const PllParameters p = make_typical_loop(0.1 * w0, w0);
  const StateSpace aug =
      augment_with_phase(to_state_space(p.filter.impedance()), p.kvco);
  ASSERT_EQ(aug.a(0, 1), 1.0);  // companion structure assumed below
  const double wp = -aug.a(1, 1);
  PropagatorFactory f(aug.a, aug.b);
  ASSERT_TRUE(f.is_spectral());
  for (double h : {1e-12, 1e-11, 1e-10, 1e-9}) {
    const StepPropagator s = f.make(h);
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
  // composed in state space, with the piecewise-linear input sampled at
  // the slice boundaries.  The exact solution satisfies this semigroup
  // identity; a wrong phi coefficient anywhere breaks it at O(h^3)
  // because the defect scales differently with the slice length.
  ScopedSpectral pin(true);
  const double w0 = 2.0 * std::numbers::pi * 2e9;
  const PllParameters p = make_typical_loop(0.1 * w0, w0);
  const StateSpace aug =
      augment_with_phase(to_state_space(p.filter.impedance()), p.kvco);
  PropagatorFactory f(aug.a, aug.b);
  ASSERT_TRUE(f.is_spectral());
  const double h = 5e-10;
  const int slices = 64;
  const StepPropagator fine = f.make(h / slices);
  const StepPropagator coarse = f.make(h);
  const double u0 = 1e-3, u1 = -0.5e-3;  // ramping charge-pump current
  RVector x(aug.a.rows(), 0.0);
  x[0] = 1e-9;  // charge on the integrating capacitor
  RVector x_fine = x;
  for (int i = 0; i < slices; ++i) {
    const double ua = u0 + (u1 - u0) * i / slices;
    const double ub = u0 + (u1 - u0) * (i + 1) / slices;
    x_fine = fine.advance(x_fine, RVector{ua}, RVector{ub}, h / slices);
  }
  const RVector x_coarse =
      coarse.advance(x, RVector{u0}, RVector{u1}, h);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double scale = std::max(std::abs(x_fine[i]), 1e-300);
    EXPECT_LT(std::abs(x_coarse[i] - x_fine[i]) / scale, 1e-12)
        << "state " << i;
  }
}

TEST(SpectralPropagator, DefectiveMatrixFallsBackToPadeBitwise) {
  ScopedSpectral pin(true);
  // Jordan block: not diagonalizable, and no trailing zero column to
  // split off (the second column is nonzero).
  const RMatrix a{{0.0, 1.0}, {0.0, 0.0}};
  const RMatrix b{{0.0}, {1.0}};
  PropagatorFactory f(a, b);
  EXPECT_EQ(f.mode(), PropagatorFactory::Mode::kPade);
  EXPECT_TRUE(f.spectral_requested());
  const double h = 0.25;
  const StepPropagator s = f.make(h);
  const StepPropagator p = make_propagator(a, b, h);
  EXPECT_TRUE(bitwise_equal(s.phi0, p.phi0));
  EXPECT_TRUE(bitwise_equal(s.gamma1, p.gamma1));
  EXPECT_TRUE(bitwise_equal(s.gamma2, p.gamma2));
}

TEST(SpectralPropagator, AllowSpectralFalseForcesPadeBitwise) {
  ScopedSpectral pin(true);
  const RMatrix a{{-1.0, 0.5}, {0.0, -2.0}};
  const RMatrix b{{1.0}, {0.0}};
  PropagatorFactory f(a, b, /*allow_spectral=*/false);
  EXPECT_EQ(f.mode(), PropagatorFactory::Mode::kPade);
  EXPECT_FALSE(f.spectral_requested());
  for (double h : {1e-3, 0.1, 2.0}) {
    const StepPropagator s = f.make(h);
    const StepPropagator p = make_propagator(a, b, h);
    EXPECT_TRUE(bitwise_equal(s.phi0, p.phi0));
    EXPECT_TRUE(bitwise_equal(s.gamma1, p.gamma1));
    EXPECT_TRUE(bitwise_equal(s.gamma2, p.gamma2));
  }
}

TEST(SpectralPropagator, GlobalKillSwitchForcesPade) {
  ScopedSpectral pin(false);
  const RMatrix a{{-1.0, 0.5}, {0.0, -2.0}};
  const RMatrix b{{1.0}, {0.0}};
  PropagatorFactory f(a, b);
  EXPECT_EQ(f.mode(), PropagatorFactory::Mode::kPade);
  EXPECT_FALSE(f.spectral_requested());
  const StepPropagator s = f.make(0.5);
  const StepPropagator p = make_propagator(a, b, 0.5);
  EXPECT_TRUE(bitwise_equal(s.phi0, p.phi0));
}

TEST(SpectralPropagator, AutonomousSystem) {
  ScopedSpectral pin(true);
  const RMatrix a{{-0.5, 1.0}, {-1.0, -0.5}};
  PropagatorFactory f(a, RMatrix{});
  ASSERT_TRUE(f.is_spectral());
  for (double h : {1e-2, 1.0}) {
    const StepPropagator s = f.make(h);
    const StepPropagator p = make_propagator(a, RMatrix{}, h);
    EXPECT_LT(max_abs_diff(s.phi0, p.phi0), 1e-13);
    EXPECT_TRUE(s.gamma1.empty());
    EXPECT_TRUE(s.gamma2.empty());
  }
}

TEST(SpectralPropagator, Gamma2FreeBuildMatchesFullBuildBitwise) {
  // Every integrator's propagator memo builds with want_gamma2 ==
  // false, which routes through phi1/phi2-only evaluations
  // (real-axis Horner, tiny-integrator-pole closed form,
  // Smith-step quotient) and the modal_cexp libm elisions.  Every one
  // of those shortcuts claims bit-identity with the full build's
  // phi_functions/batch_cexp chain; this pins the claim end to end on
  // random systems spanning both branch regimes and the sub/above-4
  // mode widths.
  ScopedSpectral pin(true);
  std::mt19937 rng(1234u);
  std::uniform_real_distribution<double> entry(-1.0, 1.0);
  std::uniform_real_distribution<double> loghd(-3.0, 1.0);
  int spectral_seen = 0;
  for (int trial = 0; trial < 80; ++trial) {
    const std::size_t n = 1 + static_cast<std::size_t>(rng() % 5);
    RMatrix a(n, n);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) a(i, j) = entry(rng);
      a(i, i) -= 2.0;
    }
    if (trial % 2 == 0) {
      // Half the draws carry the trailing zero column (phase-augmented
      // structure), exercising the specialized scalar-input builder.
      for (std::size_t i = 0; i < n; ++i) a(i, n - 1) = 0.0;
    }
    RMatrix b(n, 1);
    for (std::size_t i = 0; i < n; ++i) b(i, 0) = entry(rng);
    PropagatorFactory f(a, b);
    if (!f.is_spectral()) continue;  // rare ill-conditioned draws
    ++spectral_seen;
    StepPropagator lean;
    for (int k = 0; k < 4; ++k) {
      const double h = std::pow(10.0, loghd(rng));
      const StepPropagator full = f.make(h);
      f.make_into(h, lean, /*want_gamma2=*/false);
      EXPECT_TRUE(bitwise_equal(lean.phi0, full.phi0))
          << "trial " << trial << " h " << h;
      EXPECT_TRUE(bitwise_equal(lean.gamma1, full.gamma1))
          << "trial " << trial << " h " << h;
      EXPECT_TRUE(lean.gamma2.empty());
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
  ASSERT_EQ(fpll.mode(), PropagatorFactory::Mode::kSpectralAugmented);
  StepPropagator lean;
  std::uniform_real_distribution<double> loghp(-12.0, -8.0);
  for (int k = 0; k < 40; ++k) {
    const double h = std::pow(10.0, loghp(rng));
    const StepPropagator full = fpll.make(h);
    fpll.make_into(h, lean, /*want_gamma2=*/false);
    EXPECT_TRUE(bitwise_equal(lean.phi0, full.phi0)) << "h " << h;
    EXPECT_TRUE(bitwise_equal(lean.gamma1, full.gamma1)) << "h " << h;
  }
}

TEST(SpectralPropagator, LastRowFastPathMatchesFullAdvanceBitwise) {
  // propagate_last_row_many replaces the O(n^2) build + advance with a
  // modal theta-row contraction per offset; the record paths lean on it
  // being bit-identical to the full chain for every h the samplers
  // request.  Each case's step-length range puts |lambda h| on both
  // sides of the phi series/quotient switch at 0.5, and the 4-mode
  // system takes the batch_cexp branch.
  ScopedSpectral pin(true);
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
    ASSERT_EQ(c.f.mode(), PropagatorFactory::Mode::kSpectralAugmented);
    ASSERT_TRUE(c.f.has_last_row_fast_path());
    const std::size_t n = c.f.order();
    RVector x(n), out(n);
    const auto full_last = [&](double h, double u) {
      c.f.make(h).advance_into(x, u, u, h, out);
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
    const double negative = -1e-3;
    double unused = 0.0;
    EXPECT_THROW(
        c.f.propagate_last_row_many(&negative, 1, x.data(), u, &unused),
        std::invalid_argument);
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
  ScopedSpectral pin(true);
  EXPECT_THROW(PropagatorFactory(RMatrix(2, 3), RMatrix{}),
               std::invalid_argument);
  EXPECT_THROW(PropagatorFactory(RMatrix(2, 2), RMatrix(3, 1)),
               std::invalid_argument);
  PropagatorFactory f(RMatrix{{-1.0}}, RMatrix{{1.0}});
  EXPECT_THROW(f.make(0.0), std::invalid_argument);
  EXPECT_THROW(f.make(-1.0), std::invalid_argument);
}

}  // namespace
}  // namespace htmpll
