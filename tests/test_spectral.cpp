// Modal step evaluation: agreement with the Van Loan/Pade oracle across
// step-length decades on the phase-augmented companion shape it
// diagonalizes (Phi and Gamma1 read back from advance() on unit
// vectors), its modes and basis taken from the denominator's roots
// (closed forms of 1x1 blocks, a real pair and an undamped pair, and the
// eigenpair residual), every loop family the library builds on the
// modal path, the closed forms and semigroup identity at the 2 GHz
// scale, the theta and theta' rows, the step memo and the sampler's
// bit-identity with the commit, the real-axis series against long
// double, the Van Loan fallback for every other shape, a repeated root
// and a loop in slow time units, and the rejection of non-finite input.
#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <complex>
#include <cstdint>
#include <cstring>
#include <limits>
#include <numbers>
#include <random>
#include <stdexcept>
#include <utility>
#include <vector>

#include "htmpll/linalg/lu.hpp"
#include "htmpll/lti/loop_filter.hpp"
#include "htmpll/lti/polynomial.hpp"
#include "htmpll/lti/roots.hpp"
#include "htmpll/obs/diag.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/timedomain/loop_filter_sim.hpp"
#include "htmpll/timedomain/spectral.hpp"

#include "obs_scope.hpp"

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

/// x(h) of the state vector x through the modal state: project, step,
/// rebuild.
void advance_vector(const PropagatorFactory& f, const ModalStep& s,
                    const double* x, double u, double* out) {
  ModalState a;
  f.project(x, a);
  f.advance(s, a, u, a);
  f.rebuild(a, out);
}

/// Phi and Gamma1 of the modal step h, read back from advance_vector():
/// column j of Phi is the step of the unit state e_j under u = 0,
/// Gamma1 the step of the zero state under u = 1.
StepPropagator build(const PropagatorFactory& f, double h) {
  EXPECT_TRUE(f.is_spectral());
  const std::size_t n = f.order();
  ModalStep s;
  f.evaluate(h, s);
  StepPropagator p;
  p.phi0 = RMatrix(n, n);
  p.gamma1 = RMatrix(n, 1);
  std::vector<double> x(n, 0.0), out(n);
  for (std::size_t j = 0; j < n; ++j) {
    x[j] = 1.0;
    advance_vector(f, s, x.data(), 0.0, out.data());
    for (std::size_t i = 0; i < n; ++i) p.phi0(i, j) = out[i];
    x[j] = 0.0;
  }
  advance_vector(f, s, x.data(), 1.0, out.data());
  for (std::size_t i = 0; i < n; ++i) p.gamma1(i, 0) = out[i];
  return p;
}

/// The factory has no modal form for the system, and its propagator is
/// make_propagator bit for bit (the Van Loan fallback).
void expect_van_loan_bitwise(const PropagatorFactory& f, const RMatrix& a,
                             const RMatrix& b, double h) {
  EXPECT_FALSE(f.is_spectral());
  StepPropagator s;
  f.make_into(h, s);
  const StepPropagator p = make_propagator(a, b, h);
  EXPECT_TRUE(bitwise_equal(s.phi0, p.phi0)) << "h = " << h;
  EXPECT_TRUE(bitwise_equal(s.gamma1, p.gamma1)) << "h = " << h;
}

/// Worst absolute Phi/Gamma1 difference between a build and a reference,
/// normalized per block by the reference's max magnitude.
double block_error(const StepPropagator& s, const StepPropagator& ref) {
  return std::max(max_abs_diff(s.phi0, ref.phi0) /
                      std::max(1.0, ref.phi0.max_abs()),
                  max_abs_diff(s.gamma1, ref.gamma1) /
                      std::max(1e-300, ref.gamma1.max_abs()));
}

/// block_error of the factory against the direct Van Loan path.
double worst_block_error(const PropagatorFactory& f, const RMatrix& a,
                         const RMatrix& b, double h) {
  return block_error(build(f, h), make_propagator(a, b, h));
}

/// The modal step's error model (spectral.hpp): eps * kappa(V), above
/// the Van Loan reference's own floor.
double modal_bound(const PropagatorFactory& f) {
  return std::max(1e-12, 2e-14 * f.vector_condition());
}

/// Phase-augmented system [[A_f, 0], [c^T, 0]] whose filter block is
/// to_state_space's companion matrix of the monic polynomial
/// s^nf + sum_j den[j] s^j (den[nf] == 1).
RMatrix augmented_companion(const std::vector<double>& den,
                            const std::vector<double>& theta_row) {
  const std::size_t nf = den.size() - 1;
  RMatrix a(nf + 1, nf + 1);
  for (std::size_t i = 0; i + 1 < nf; ++i) a(i, i + 1) = 1.0;
  for (std::size_t j = 0; j < nf; ++j) {
    a(nf - 1, j) = -den[j];
    a(nf, j) = theta_row[j];
  }
  return a;
}

/// Random stable monic polynomial of degree nf, lowest coefficient
/// first: real roots in [-3, -0.1] and damped pairs -s +- jw with s in
/// [0.1, 2] and w in [0.2, 2].
std::vector<double> random_stable_monic(std::mt19937& rng, std::size_t nf) {
  std::uniform_real_distribution<double> real_root(-3.0, -0.1);
  std::uniform_real_distribution<double> damping(0.1, 2.0);
  std::uniform_real_distribution<double> freq(0.2, 2.0);
  std::uniform_real_distribution<double> coin(0.0, 1.0);
  std::vector<double> p{1.0};
  const auto times = [&p](const std::vector<double>& q) {
    std::vector<double> r(p.size() + q.size() - 1, 0.0);
    for (std::size_t i = 0; i < p.size(); ++i) {
      for (std::size_t j = 0; j < q.size(); ++j) r[i + j] += p[i] * q[j];
    }
    p = r;
  };
  while (p.size() <= nf) {
    if (p.size() + 1 <= nf && coin(rng) < 0.5) {
      const double sd = damping(rng), w = freq(rng);
      times({sd * sd + w * w, 2.0 * sd, 1.0});
    } else {
      times({-real_root(rng), 1.0});
    }
  }
  return p;
}

/// Random phase-augmented companion system with one input: a stable
/// n-1 mode filter block, a theta row and an input column.
void random_augmented(std::mt19937& rng, std::size_t n, RMatrix& a,
                      RMatrix& b) {
  std::uniform_real_distribution<double> entry(-1.0, 1.0);
  const std::vector<double> den = random_stable_monic(rng, n - 1);
  std::vector<double> theta_row(n - 1);
  for (double& c : theta_row) c = entry(rng);
  a = augmented_companion(den, theta_row);
  b = RMatrix(n, 1);
  for (std::size_t i = 0; i < n; ++i) b(i, 0) = entry(rng);
}

/// kappa_inf of the unit-column Vandermonde basis built from find_roots
/// of the filter block's characteristic polynomial.
double vandermonde_condition(const RMatrix& a) {
  const std::size_t nf = a.rows() - 1;
  std::vector<double> den(nf + 1, 1.0);
  for (std::size_t j = 0; j < nf; ++j) den[j] = -a(nf - 1, j);
  const CVector modes = find_roots(Polynomial::from_real(den));
  CMatrix v(nf, nf);
  for (std::size_t k = 0; k < nf; ++k) {
    cplx power{1.0, 0.0};
    double norm2 = 0.0;
    for (std::size_t i = 0; i < nf; ++i) {
      v(i, k) = power;
      norm2 += std::norm(power);
      power *= modes[k];
    }
    const double norm = std::sqrt(norm2);
    for (std::size_t i = 0; i < nf; ++i) v(i, k) /= norm;
  }
  return v.norm_inf() * CLu(v).inverse().norm_inf();
}

/// Exact propagator of a phase-augmented system whose 2x2 filter block
/// has the distinct modes l1 and l2, by Sylvester's formula
/// f(A_f) = f(l1) (A_f - l2) / (l1 - l2) + f(l2) (A_f - l1) / (l2 - l1)
/// in long double -- an oracle that shares nothing with either build:
///   Phi_f = e^{A_f h},        Gamma1_f     = g(A_f) b_f,
///   Phi_theta = c^T g(A_f),   Gamma1_theta = c^T k(A_f) b_f + h b_theta,
/// with g(l) = (e^{lh} - 1) / l and k(l) = (e^{lh} - 1 - lh) / l^2.  k
/// cancels as |l h| -> 0, so callers keep |l h| >= 0.1.
StepPropagator sylvester_propagator(const RMatrix& a, const RMatrix& b,
                                    cplx l1, cplx l2, double h) {
  using lcplx = std::complex<long double>;
  const lcplx m1{l1.real(), l1.imag()};
  const lcplx m2{l2.real(), l2.imag()};
  const long double hl = h;
  using Block = std::array<std::array<lcplx, 2>, 2>;
  const auto of_filter = [&](auto f) {
    const lcplx w1 = f(m1) / (m1 - m2);
    const lcplx w2 = f(m2) / (m2 - m1);
    Block r{};
    for (std::size_t i = 0; i < 2; ++i) {
      for (std::size_t j = 0; j < 2; ++j) {
        const lcplx aij = a(i, j);
        r[i][j] = w1 * (aij - (i == j ? m2 : 0.0L)) +
                  w2 * (aij - (i == j ? m1 : 0.0L));
      }
    }
    return r;
  };
  const Block e = of_filter([&](lcplx l) { return std::exp(l * hl); });
  const Block g =
      of_filter([&](lcplx l) { return (std::exp(l * hl) - 1.0L) / l; });
  const Block k = of_filter([&](lcplx l) {
    return (std::exp(l * hl) - 1.0L - l * hl) / (l * l);
  });
  const auto ld = [](double x) { return static_cast<long double>(x); };
  const auto re = [](lcplx z) { return static_cast<double>(z.real()); };
  StepPropagator p;
  p.phi0 = RMatrix(3, 3);
  p.gamma1 = RMatrix(3, 1);
  lcplx g1_theta = hl * ld(b(2, 0));
  for (std::size_t i = 0; i < 2; ++i) {
    lcplx g1{0.0L};
    for (std::size_t j = 0; j < 2; ++j) {
      p.phi0(i, j) = re(e[i][j]);
      g1 += g[i][j] * ld(b(j, 0));
      g1_theta += ld(a(2, i)) * k[i][j] * ld(b(j, 0));
    }
    p.gamma1(i, 0) = re(g1);
    p.phi0(2, i) = re(ld(a(2, 0)) * g[0][i] + ld(a(2, 1)) * g[1][i]);
  }
  p.phi0(2, 2) = 1.0;
  p.gamma1(2, 0) = re(g1_theta);
  return p;
}

/// The simulators' system for a loop: the phase-augmented realization
/// of its filter impedance.
StateSpace loop_system(const PllParameters& p) {
  return augment_with_phase(to_state_space(p.filter.impedance()), p.kvco);
}

/// Well-scaled phase-augmented system: a damped pair
/// s^2 + 0.8 s + 1.15 (modes -0.4 +- 0.995j) feeding theta.
const RMatrix kAugA{{0.0, 1.0, 0.0}, {-1.15, -0.8, 0.0}, {0.7, 0.2, 0.0}};
const RMatrix kAugB{{0.1}, {1.0}, {0.4}};
/// The same modes in a filter block that is not a companion matrix.
const RMatrix kNonCompanionA{
    {-0.3, 1.0, 0.0}, {-1.0, -0.5, 0.0}, {0.7, 0.2, 0.0}};

TEST(SpectralPropagator, NonAugmentedSystemBuildsVanLoanBitwise) {
  // Well-scaled stable system with one real pole and a complex pair but
  // no trailing zero column: the factory has no modal build for it.
  const RMatrix a{{-0.4, 1.0, 0.0},
                  {-1.0, -0.4, 0.2},
                  {0.0, 0.0, -2.0}};
  const RMatrix b{{0.0}, {1.0}, {0.5}};
  PropagatorFactory f(a, b);
  EXPECT_FALSE(f.is_spectral());
  for (double h = 1e-3; h <= 10.0 + 1e-9; h *= 10.0) {
    expect_van_loan_bitwise(f, a, b, h);
  }
}

TEST(SpectralPropagator, MatchesPadeOnRandomStableSystems) {
  // n = 2..6 puts the filter block at 1..5 modes, real and complex.
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
      EXPECT_LT(worst_block_error(f, a, b, h), modal_bound(f))
          << "trial " << trial << " n " << n << " h " << h << " kappa "
          << f.vector_condition();
    }
  }
  EXPECT_GT(spectral_seen, 40);
  EXPECT_GT(wide_seen, 15);
}

TEST(SpectralPropagator, StructuredModeMatchesPadeAcrossFourDecades) {
  // Trailing zero column (integrated last state) on a WELL-SCALED
  // companion system, so the Pade reference is trustworthy and directly
  // validates the structured theta-row formulas (the h phi1 / h^2 phi2
  // modal sums) to full precision.
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
    fine.advance_into(x_fine, u, next);
    x_fine.swap(next);
  }
  RVector x_coarse;
  coarse.advance_into(x, u, x_coarse);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double scale = std::max(std::abs(x_fine[i]), 1e-300);
    EXPECT_LT(std::abs(x_coarse[i] - x_fine[i]) / scale, 1e-12)
        << "state " << i;
  }
}

TEST(SpectralPropagator, DefectiveMatrixFallsBackToPadeBitwise) {
  // Phase-augmented shape whose filter block is a Jordan block, the
  // companion matrix of s^2: the double root makes the Vandermonde basis
  // singular, so the factory finds the block defective and falls back.
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
  for (double h : {0.25, 2.0}) expect_van_loan_bitwise(f, a, b, h);
}

TEST(SpectralPropagator, NonCompanionFilterBlockBuildsVanLoanBitwise) {
  // A stable, well-conditioned filter block outside to_state_space's
  // companion layout: its modes are not the roots of its last row, so
  // the factory has no modal build for it.
  PropagatorFactory f(kNonCompanionA, kAugB);
  EXPECT_FALSE(f.is_spectral());
  EXPECT_TRUE(std::isinf(f.vector_condition()));
  for (double h : {1e-3, 0.1, 2.0}) {
    expect_van_loan_bitwise(f, kNonCompanionA, kAugB, h);
  }
}

TEST(SpectralPropagator, ConditionComesFromTheDenominatorRoots) {
  // vector_condition() is kappa_inf of the unit-column Vandermonde basis
  // of find_roots on the block's characteristic polynomial, bit for bit:
  // a damped pair, the typical loop (a DC mode and -wp), Gardner's
  // second-order loop (the 1x1 block [[-0]], one mode at exactly 0) and
  // random companion blocks of 1..5 modes.
  const double w0 = 2.0 * std::numbers::pi * 2e9;
  std::vector<std::pair<RMatrix, RMatrix>> systems{{kAugA, kAugB}};
  for (const PllParameters& p : {make_typical_loop(0.1 * w0, w0),
                                 make_second_order_loop(0.1 * w0, w0)}) {
    const StateSpace aug = loop_system(p);
    systems.emplace_back(aug.a, aug.b);
  }
  std::mt19937 rng(2026u);
  for (std::size_t n = 2; n <= 6; ++n) {
    RMatrix a, b;
    random_augmented(rng, n, a, b);
    systems.emplace_back(a, b);
  }
  for (const auto& [a, b] : systems) {
    const PropagatorFactory f(a, b);
    const double want = vandermonde_condition(a);
    EXPECT_EQ(f.vector_condition(), want) << "order " << a.rows();
    EXPECT_EQ(f.is_spectral(), want <= PropagatorFactory::kMaxCondition);
  }
  // The second-order loop's single mode: kappa of the 1x1 basis [[1]].
  const StateSpace second =
      loop_system(make_second_order_loop(0.1 * w0, w0));
  EXPECT_EQ(PropagatorFactory(second.a, second.b).vector_condition(), 1.0);
}

TEST(SpectralPropagator, ScalarFilterBlockMatchesClosedForms) {
  // A first-order filter block [[-r]] feeding theta, and at r = 0 the
  // block [[-0]] of a C2 = 0 loop, whose single mode find_roots returns
  // as exactly 0.  With e = e^{-rh}:
  //   Phi    = [[e, 0], [c (1 - e) / r, 1]],
  //   Gamma1 = [b (1 - e) / r, c b (rh - 1 + e) / r^2 + b_theta h],
  // and at r = 0 the double integrator [[1, 0], [c h, 1]],
  // [b h, c b h^2 / 2 + b_theta h].  The references take expm1 in long
  // double, so they keep every digit at small r h too.
  const double c = 0.7, bf = 1.3, bt = 0.4;
  for (const double r : {0.0, 2.5}) {
    const RMatrix a{{-r, 0.0}, {c, 0.0}};
    const RMatrix b{{bf}, {bt}};
    const PropagatorFactory f(a, b);
    ASSERT_TRUE(f.is_spectral()) << "r " << r;
    EXPECT_EQ(f.vector_condition(), 1.0);
    for (const double h : {1e-3, 0.1, 1.0, 8.0}) {
      const long double rl = r, hl = h;
      const long double em1 = std::expm1(-rl * hl);
      // g = h phi1(-r h) and k = h^2 phi2(-r h).
      const long double g = r == 0.0 ? hl : -em1 / rl;
      const long double k =
          r == 0.0 ? hl * hl / 2.0L : (rl * hl + em1) / (rl * rl);
      StepPropagator ref;
      ref.phi0 = RMatrix{{static_cast<double>(1.0L + em1), 0.0},
                         {static_cast<double>(c * g), 1.0}};
      ref.gamma1 = RMatrix{{static_cast<double>(bf * g)},
                           {static_cast<double>(c * bf * k + bt * hl)}};
      const StepPropagator s = build(f, h);
      EXPECT_LT(block_error(s, ref), 1e-14) << "r " << r << " h " << h;
      if (r == 0.0) {
        EXPECT_EQ(s.phi0(0, 0), 1.0) << "h " << h;
      }
    }
  }
}

TEST(SpectralPropagator, RealDistinctModesMatchSylvesterForm) {
  // Companion block of (s + 1)(s + 4): find_roots' quadratic closed form
  // returns the modes -1 and -4 exactly, and the modal build matches
  // Sylvester's formula on both sides of the phi series/quotient switch
  // at |lambda h| = 0.5.
  const RMatrix a = augmented_companion({4.0, 5.0, 1.0}, {0.7, 0.2});
  const PropagatorFactory f(a, kAugB);
  ASSERT_TRUE(f.is_spectral());
  for (const double h : {0.1, 0.3, 1.0, 4.0}) {
    EXPECT_LT(block_error(build(f, h),
                          sylvester_propagator(a, kAugB, -1.0, -4.0, h)),
              1e-14)
        << "h = " << h;
  }
}

TEST(SpectralPropagator, UndampedPairPropagatesARotation) {
  // s^2 + 9: the conjugate modes +-3j lie on the imaginary axis, which
  // the random stable draws never reach.  The real part of the modal sum
  // over the pair is the rotation
  //   e^{A_f h} = [[cos 3h, sin(3h) / 3], [-3 sin 3h, cos 3h]],
  // and every block matches Sylvester's formula.
  const double w = 3.0;
  const RMatrix a = augmented_companion({w * w, 0.0, 1.0}, {0.7, 0.2});
  const PropagatorFactory f(a, kAugB);
  ASSERT_TRUE(f.is_spectral());
  for (const double h : {0.1, 0.5, 1.0, 4.0}) {
    const StepPropagator s = build(f, h);
    const double cs = std::cos(w * h), sn = std::sin(w * h);
    EXPECT_NEAR(s.phi0(0, 0), cs, 1e-14) << "h = " << h;
    EXPECT_NEAR(s.phi0(0, 1), sn / w, 1e-14) << "h = " << h;
    EXPECT_NEAR(s.phi0(1, 0), -w * sn, 1e-14) << "h = " << h;
    EXPECT_NEAR(s.phi0(1, 1), cs, 1e-14) << "h = " << h;
    EXPECT_LT(block_error(s, sylvester_propagator(a, kAugB, {0.0, w},
                                                  {0.0, -w}, h)),
              1e-14)
        << "h = " << h;
  }
}

TEST(SpectralPropagator, EigenpairResidualStaysAtRoundingLevel) {
  // The eigenvectors are closed forms, so a column (1, lambda, ...,
  // lambda^(nf-1)) is an eigenvector of the companion block exactly
  // when lambda is a root: the residual gauge
  // ||A_f v - lambda v||_inf / ||A_f||_inf measures how well find_roots
  // (closed forms up to degree 2, Aberth above) solved the denominator.
  // On random stable blocks of 1..5 modes it stays at rounding level.
  const bool was = obs::enabled();
  obs::enable();
  std::mt19937 rng(20260807u);
  double worst = 0.0;
  for (int trial = 0; trial < 100; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial % 5);
    RMatrix a, b;
    random_augmented(rng, n, a, b);
    obs::reset_counters();
    const PropagatorFactory f(a, b);
    const double residual =
        obs::gauge("timedomain.max_eigenpair_residual").value();
    EXPECT_LT(residual, 1e-14) << "trial " << trial << " n " << n;
    worst = std::max(worst, residual);
  }
  obs::reset_counters();
  if (!was) obs::disable();
  EXPECT_GT(worst, 0.0);  // the gauge was recorded
}

TEST(SpectralPropagator, RejectsNonFiniteSystems) {
  // A NaN or infinity in any entry of A or B is rejected when the
  // factory is built, on a system with a modal build (kAugA) and on one
  // without (kNonCompanionA).
  const double inf = std::numeric_limits<double>::infinity();
  for (const double bad :
       {std::numeric_limits<double>::quiet_NaN(), inf, -inf}) {
    for (const RMatrix* base : {&kAugA, &kNonCompanionA}) {
      for (std::size_t i = 0; i < 3; ++i) {
        for (std::size_t j = 0; j < 3; ++j) {
          RMatrix a = *base;
          a(i, j) = bad;
          EXPECT_THROW(PropagatorFactory(a, kAugB), std::invalid_argument)
              << "A(" << i << ", " << j << ") = " << bad;
        }
        RMatrix b = kAugB;
        b(i, 0) = bad;
        EXPECT_THROW(PropagatorFactory(*base, b), std::invalid_argument)
            << "B(" << i << ") = " << bad;
      }
    }
  }
}

TEST(SpectralPropagator, CountsOneFactorizationPerCompanionBlock) {
  const bool was = obs::enabled();
  obs::enable();
  obs::Counter& factorizations = obs::counter("linalg.eig_factorizations");
  const auto count = [&](const RMatrix& a, const RMatrix& b) {
    const std::uint64_t before = factorizations.value();
    const PropagatorFactory f(a, b);
    return factorizations.value() - before;
  };
  const RMatrix non_augmented{{-0.4, 1.0}, {-1.0, -0.4}};
  const RMatrix two_inputs{{0.1, 0.0}, {1.0, 0.3}, {0.4, -0.2}};
  const std::uint64_t companion = count(kAugA, kAugB);
  const std::uint64_t non_companion = count(kNonCompanionA, kAugB);
  const std::uint64_t other_shapes =
      count(non_augmented, RMatrix{{0.0}, {1.0}}) +
      count(kAugA, two_inputs) + count(kAugA, RMatrix{});
  if (!was) obs::disable();
  EXPECT_EQ(companion, 1u);
  EXPECT_EQ(non_companion, 0u);
  EXPECT_EQ(other_shapes, 0u);
}

TEST(SpectralPropagator, EveryLibraryLoopFamilyIsModal) {
  // Typical loops at gamma 1.5, 4 and 10, Gardner's second-order loop
  // (C2 = 0: a 1x1 filter block) and a loop built with
  // ChargePumpFilter::from_frequencies (zero at w_ug/2, pole at 8 w_ug),
  // each at four reference frequencies and five bandwidths: all take
  // the modal build, which is about 16x cheaper per probe than Van Loan.
  // At w0 = 2 pi the Van Loan oracle is accurate enough to compare
  // against; at 2 GHz it is the less accurate side (its augmented matrix
  // holds entries ~1e18), so only the path is checked there.
  const auto from_frequencies_loop = [](double w_ug, double w0) {
    PllParameters p;
    p.w0 = w0;
    p.kvco = 1.0;
    p.filter =
        ChargePumpFilter::from_frequencies(0.5 * w_ug, 8.0 * w_ug, 1.0 / w_ug);
    p.icp = 2.0 * std::numbers::pi * w_ug * w_ug * p.filter.total_cap() /
            (p.w0 * p.kvco);
    return p;
  };
  const bool was = obs::enabled();
  obs::enable();
  obs::reset_counters();
  int loops = 0;
  for (double f0 : {1.0, 1e6, 2e9, 1e12}) {
    const double w0 = 2.0 * std::numbers::pi * f0;
    for (double ratio : {0.001, 0.01, 0.1, 0.27, 0.45}) {
      const double w_ug = ratio * w0;
      for (const PllParameters& p :
           {make_typical_loop(w_ug, w0, 1.5), make_typical_loop(w_ug, w0),
            make_typical_loop(w_ug, w0, 10.0),
            make_second_order_loop(w_ug, w0),
            from_frequencies_loop(w_ug, w0)}) {
        ++loops;
        const StateSpace aug = loop_system(p);
        const PropagatorFactory f(aug.a, aug.b);
        ASSERT_TRUE(f.is_spectral())
            << "f0 " << f0 << " ratio " << ratio << " order " << aug.order();
        EXPECT_LE(f.vector_condition(), 1e3)
            << "f0 " << f0 << " ratio " << ratio << " order " << aug.order();
        if (f0 != 1.0) continue;
        const double t = p.period();
        for (double h : {t / 64.0, t / 8.0, t, 4.0 * t}) {
          EXPECT_LT(worst_block_error(f, aug.a, aug.b, h), modal_bound(f))
              << "ratio " << ratio << " order " << aug.order() << " h " << h;
        }
      }
    }
  }
  const obs::DiagSnapshot diag = obs::diag_snapshot();
  if (!was) obs::disable();
  EXPECT_EQ(loops, 100);
  for (obs::DiagReason r : {obs::DiagReason::kPadeFallbackDefective,
                            obs::DiagReason::kPadeFallbackIllConditioned}) {
    EXPECT_EQ(diag.tally[static_cast<std::size_t>(r)], 0u)
        << obs::diag_reason_name(r);
  }
}

TEST(SpectralPropagator, SlowUnitLoopBuildsVanLoanBitwise) {
  // The typical loop in slow units (w0 = 2 pi 1e-9 rad/s).  Its modes
  // {0, -w_p} give the unit-column basis
  // kappa_inf(V) = (1 + 1/sqrt(1 + w_p^2)) (1 + 1/w_p) ~ 2/w_p with w_p
  // in rad/s: 8e8 here, past kMaxCondition, so the matrix alone sends
  // every step of this loop to make_propagator.
  const double w0 = 2.0 * std::numbers::pi * 1e-9;
  const PllParameters p = make_typical_loop(0.1 * w0, w0);
  const StateSpace aug = loop_system(p);
  ASSERT_EQ(aug.a(1, 0), 0.0);  // the DC mode
  const double wp = -aug.a(1, 1);
  const PropagatorFactory f(aug.a, aug.b);
  EXPECT_FALSE(f.is_spectral());
  const double kappa =
      (1.0 + 1.0 / std::sqrt(1.0 + wp * wp)) * (1.0 + 1.0 / wp);
  EXPECT_GT(kappa, PropagatorFactory::kMaxCondition);
  EXPECT_NEAR(f.vector_condition(), kappa, 1e-12 * kappa);
  const double t = p.period();
  for (double h : {t / 64.0, t / 8.0, t, 4.0 * t}) {
    expect_van_loan_bitwise(f, aug.a, aug.b, h);
  }
}

TEST(SpectralPropagator, TwoInputSystemBuildsVanLoanBitwise) {
  // The augmented shape with a second input column has no modal build.
  const RMatrix b{{0.1, 0.0}, {1.0, 0.3}, {0.4, -0.2}};
  PropagatorFactory f(kAugA, b);
  EXPECT_FALSE(f.is_spectral());
  for (double h : {1e-2, 0.5, 3.0}) expect_van_loan_bitwise(f, kAugA, b, h);
}

TEST(SpectralPropagator, AutonomousSystem) {
  PropagatorFactory f(kAugA, RMatrix{});
  EXPECT_FALSE(f.is_spectral());
  for (double h : {1e-2, 1.0}) {
    expect_van_loan_bitwise(f, kAugA, RMatrix{}, h);
    StepPropagator p;
    f.make_into(h, p);
    EXPECT_TRUE(p.gamma1.empty());
  }
}

template <class T>
bool same_bits(const std::vector<T>& x, const std::vector<T>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(T)) == 0);
}

/// Every scalar of two evaluations, bit for bit.
bool same_step(const ModalStep& a, const ModalStep& b) {
  const auto same = [](const auto& x, const auto& y) {
    return same_bits(x.e, y.e) && same_bits(x.g1, y.g1) &&
           same_bits(x.g2, y.g2);
  };
  return a.h == b.h && same(a.real_modes, b.real_modes) &&
         same(a.complex_modes, b.complex_modes);
}

TEST(SpectralPropagator, MemoHitMatchesFreshEvaluationBitwise) {
  // Every integrator memo re-evaluates its scalars in place, into
  // storage that last held another step (or another system's modes),
  // and serves repeats of the same h from it.  The warm evaluation must
  // equal a fresh one bit for bit on random companion systems spanning
  // both phi branch regimes and 1..5 modes, and at the 2 GHz loop's
  // step lengths; an integrator's memo hit must equal a fresh
  // integrator's miss.
  std::mt19937 rng(1234u);
  std::uniform_real_distribution<double> loghd(-3.0, 1.0);
  std::uniform_real_distribution<double> entry(-1.0, 1.0);
  int spectral_seen = 0;
  ModalStep warm;
  for (int trial = 0; trial < 80; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(rng() % 5);
    RMatrix a, b;
    random_augmented(rng, n, a, b);
    PropagatorFactory f(a, b);
    if (!f.is_spectral()) continue;  // rare ill-conditioned draws
    ++spectral_seen;
    for (int k = 0; k < 4; ++k) {
      const double h = std::pow(10.0, loghd(rng));
      f.evaluate(h, warm);
      ModalStep fresh;
      f.evaluate(h, fresh);
      EXPECT_TRUE(same_step(warm, fresh)) << "trial " << trial << " h " << h;
    }
  }
  EXPECT_GT(spectral_seen, 50);

  // The real PLL loop: near-zero integrator pole (tiny-argument fast
  // path) at hardware step lengths, through the integrator's memo.
  const double w0 = 2.0 * std::numbers::pi * 2e9;
  const PllParameters p = make_typical_loop(0.1 * w0, w0);
  const StateSpace aug = loop_system(p);
  PiecewiseExactIntegrator memo(aug);
  ASSERT_TRUE(memo.spectral_propagators());
  memo.set_state({1e-9, -2e-10, 3e-11});
  std::uniform_real_distribution<double> loghp(-12.0, -8.0);
  const auto same = [](const RVector& x, const RVector& y) {
    return x.size() == y.size() &&
           std::memcmp(x.data(), y.data(), x.size() * sizeof(double)) == 0;
  };
  const PropagatorMemoCounts st;
  for (int k = 0; k < 40; ++k) {
    const double h = std::pow(10.0, loghp(rng));
    const RVector miss = memo.peek(h, 1e-3);
    const RVector hit = memo.peek(h, 1e-3);
    PiecewiseExactIntegrator fresh(aug);
    fresh.set_state(memo.state());
    EXPECT_TRUE(same(hit, miss)) << "h " << h;
    EXPECT_TRUE(same(hit, fresh.peek(h, 1e-3))) << "h " << h;
  }
  EXPECT_EQ(st.hits(), 40u);
}

TEST(SpectralPropagator, SamplerThetaMatchesCommittedAdvanceBitwise) {
  // The record paths take theta at a segment's sample offsets from
  // peek_last_many, one scalar set and the theta row per offset, and the
  // VCO-edge Newton from peek_theta; the event loop then commits with
  // advance.  All three must give the same theta bit for bit for every
  // h.  Each case's step-length range puts |lambda h| on both sides of
  // the phi series/quotient switch at 0.5, and the 4-mode system
  // carries a complex pair.
  std::mt19937 rng(4321u);
  std::uniform_real_distribution<double> entry(-1.0, 1.0);

  const double w0 = 2.0 * std::numbers::pi * 2e9;
  const StateSpace pll = loop_system(make_typical_loop(0.1 * w0, w0));
  // Modes -0.4 +- 0.995j, -2 and -0.8:
  // (s^2 + 0.8 s + 1.15)(s^2 + 2.8 s + 1.6).
  StateSpace quad;
  quad.a =
      augmented_companion({1.84, 4.5, 4.99, 3.6, 1.0}, {0.7, 0.2, 0.3, 0.1});
  quad.b = RMatrix{{0.1}, {1.0}, {0.5}, {0.2}, {0.4}};
  StateSpace damped;
  damped.a = kAugA;
  damped.b = kAugB;
  for (StateSpace* ss : {&quad, &damped}) {
    ss->c = RMatrix(1, ss->a.rows());
    ss->c(0, 0) = 1.0;
  }
  struct Case {
    const StateSpace& ss;
    double logh_lo, logh_hi, xscale;
  };
  const Case cases[] = {{pll, -12.0, -8.0, 1e-9},
                        {damped, -3.0, 1.0, 1.0},
                        {quad, -3.0, 1.0, 1.0}};
  const auto same = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };
  for (const Case& c : cases) {
    PiecewiseExactIntegrator sampler(c.ss);
    ASSERT_TRUE(sampler.spectral_propagators());
    const std::size_t n = c.ss.order();
    std::uniform_real_distribution<double> logh(c.logh_lo, c.logh_hi);
    // A segment's 60 offsets in one call sharing state and input, an
    // offset of 0 among them.
    std::vector<double> hs(61);
    for (double& h : hs) h = std::pow(10.0, logh(rng));
    hs[30] = 0.0;
    RVector x(n);
    for (double& v : x) v = entry(rng) * c.xscale;
    sampler.set_state(x);
    const double u = entry(rng) * 1e-3;
    std::vector<double> got(hs.size());
    sampler.peek_last_many(hs.data(), hs.size(), u, got.data());
    for (std::size_t k = 0; k < hs.size(); ++k) {
      PiecewiseExactIntegrator committed(c.ss);
      committed.set_state(x);
      committed.advance(hs[k], u);
      EXPECT_TRUE(same(got[k], committed.state()[n - 1]))
          << "n " << n << " offset " << k << " h " << hs[k];
      EXPECT_TRUE(same(sampler.peek_theta(hs[k], u).theta, got[k]))
          << "n " << n << " offset " << k << " h " << hs[k];
    }
    double unused = 0.0;
    for (double bad : {-1e-3, std::numeric_limits<double>::infinity(),
                       std::numeric_limits<double>::quiet_NaN()}) {
      EXPECT_THROW(sampler.peek_last_many(&bad, 1, u, &unused),
                   std::invalid_argument);
    }
  }
}

TEST(SpectralPropagator, ThetaRowsMatchVanLoanAndTheStateRate) {
  // peek_theta's two rows, theta(h) and theta'(h) = (A x(h) + B u)_theta,
  // against the last entry and the last row of A x + B u of a Van Loan
  // peek, and theta' against the last row of A x + B u at the modal
  // advance's own state, on random companion systems of 1..5 modes
  // (complex pairs included) at step lengths on both sides of the phi
  // series/quotient switch.  Bound: the modal step's max(1e-12,
  // 2e-14 kappa(V)), relative to the size of the terms summed.
  std::mt19937 rng(97531u);
  std::uniform_real_distribution<double> entry(-1.0, 1.0);
  std::uniform_real_distribution<double> logh(-3.0, 0.6);
  int spectral_seen = 0;
  int complex_seen = 0;
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = 2 + static_cast<std::size_t>(trial % 5);
    RMatrix a, b;
    random_augmented(rng, n, a, b);
    const PropagatorFactory f(a, b);
    if (!f.is_spectral()) continue;  // rare ill-conditioned draws
    ++spectral_seen;
    const CVector modes = [&] {
      std::vector<double> den(n, 1.0);
      for (std::size_t j = 0; j + 1 < n; ++j) den[j] = -a(n - 2, j);
      return find_roots(Polynomial::from_real(den));
    }();
    for (const cplx& m : modes) {
      if (m.imag() != 0.0) {
        ++complex_seen;
        break;
      }
    }
    const auto rate = [&](const RVector& x, double u) {
      double r = b(n - 1, 0) * u;
      for (std::size_t j = 0; j < n; ++j) r += a(n - 1, j) * x[j];
      return r;
    };
    for (int k = 0; k < 6; ++k) {
      const double h = std::pow(10.0, logh(rng));
      RVector x(n);
      for (double& v : x) v = entry(rng);
      const double u = entry(rng);
      ModalStep s;
      f.evaluate(h, s);
      ModalState state;
      f.project(x.data(), state);
      const ThetaRows rows = f.theta_rows(s, state, u);
      RVector modal(n);
      advance_vector(f, s, x.data(), u, modal.data());
      const RVector vl = make_propagator(a, b, h).advance(x, {u});
      const double scale = 1.0 + h;  // |x|, |u| <= 1; Phi, Gamma1 ~ 1 + h
      const double bound = modal_bound(f) * scale;
      SCOPED_TRACE(testing::Message() << "trial " << trial << " n " << n
                                      << " h " << h);
      EXPECT_LT(std::abs(rows.theta - vl[n - 1]), bound);
      EXPECT_LT(std::abs(rows.slope - rate(vl, u)), bound);
      EXPECT_LT(std::abs(rows.slope - rate(modal, u)), bound);
    }
  }
  EXPECT_GT(spectral_seen, 40);
  EXPECT_GT(complex_seen, 20);
}

TEST(SpectralPropagator, PhiShortcutIdentitiesMatchLibraryOps) {
  // Randomized differential pins for the floating-point identities the
  // real-axis scalars rely on.  Each check replicates the flop DAG of
  // the production shortcut and of the library op sequence it
  // replaces, and demands bitwise agreement.
  std::mt19937_64 rng(99u);
  std::uniform_real_distribution<double> expo_tiny(-320.0, -60.01);
  std::uniform_real_distribution<double> expo_series(-59.99, -1.01);
  std::uniform_real_distribution<double> mant(1.0, 2.0);
  std::uniform_real_distribution<double> uni(-1.0, 1.0);
  const auto same = [](double a, double b) {
    return std::memcmp(&a, &b, sizeof(double)) == 0;
  };

  // exp(x) == 1.0 exactly below 2^-60, the constant the integrator
  // pole's e^z takes there, and the real-axis cexp collapse
  // m*cos(+-0) == m, m*sin(+-0) == m*(+-0) behind evaluating a real
  // mode's e^z with one exp.
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

  // Quotient shortcut (Smith step with ratio = 0) vs the library
  // complex division, real z with 0.5 <= |z| <= 50: on a real argument
  // the library division reduces to the real quotients (e^z - 1) / z
  // and (phi1 - 1) / z the real branch takes.
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

TEST(SpectralPropagator, RealSeriesMatchesLongDoubleReference) {
  // The real-axis series branch, 2^-60 <= |z| < 0.5, takes the shortest
  // phi3 Horner whose tail stays below 2^-56 phi3, and e^z = 1 + z phi1
  // instead of exp.  Against long double series of e^z, phi1 and phi2,
  // its worst relative error over random z of both signs across every
  // binade stays within the worst error of the full 17-term Horner it
  // replaced (phi1, phi2 and 1 + z phi1 from it).  Read through the
  // public path: a 1x1 filter block [[lambda]], lambda in [1, 2) of
  // either sign, at h = 2^e, so z = lambda h and the scalars
  // e, g1 / h = phi1 and g2 / h^2 = phi2 are exact.
  using ld = long double;
  const auto series = [](ld z, int k) {  // sum_j z^j / (j + k)!
    ld fact = 1.0L;
    for (int i = 2; i <= k; ++i) fact *= i;
    std::vector<ld> c(40);
    for (std::size_t j = 0; j < c.size(); ++j) {
      c[j] = 1.0L / fact;
      fact *= static_cast<ld>(j) + static_cast<ld>(k) + 1.0L;
    }
    ld acc = 0.0L;
    for (std::size_t j = c.size(); j-- > 0;) acc = acc * z + c[j];
    return acc;
  };
  double inv_fact[17];
  double fct = 6.0;
  for (int j = 0; j <= 16; ++j) {
    inv_fact[j] = 1.0 / fct;
    fct *= static_cast<double>(j + 4);
  }
  std::mt19937_64 rng(99u);
  std::uniform_real_distribution<double> mant(1.0, 2.0);
  const auto rel = [](double got, ld want) {
    return static_cast<double>(std::fabs((static_cast<ld>(got) - want) / want));
  };
  double worst[3] = {0.0, 0.0, 0.0};  // e, phi1, phi2 of the branch
  double worst17[3] = {0.0, 0.0, 0.0};
  int samples = 0;
  for (int i = 0; i < 1500; ++i) {
    const double lambda = (i % 2 == 0 ? 1.0 : -1.0) * mant(rng);
    const PropagatorFactory f(RMatrix{{lambda, 0.0}, {1.0, 0.0}},
                              RMatrix{{1.0}, {0.0}});
    ASSERT_TRUE(f.is_spectral());
    ModalStep s;
    for (int e = -61; e <= -1; ++e) {
      const double h = std::ldexp(1.0, e);
      const double z = lambda * h;
      if (std::fabs(z) < 0x1p-60 || std::fabs(z) >= 0.5) continue;
      ++samples;
      f.evaluate(h, s);
      const ld zl = z;
      const ld want[3] = {std::exp(zl), series(zl, 1), series(zl, 2)};
      const double got[3] = {s.real_modes.e[0], s.real_modes.g1[0] / h,
                             s.real_modes.g2[0] / (h * h)};
      // The 17-term Horner of phi3, phi2 = z phi3 + 1/2,
      // phi1 = z phi2 + 1, and e^z = 1 + z phi1 from it.
      double a = 0.0;
      for (int j = 16; j >= 0; --j) a = a * z + inv_fact[j];
      const double p2 = z * a + 0.5;
      const double p1 = z * p2 + 1.0;
      const double full[3] = {z * p1 + 1.0, p1, p2};
      for (int q = 0; q < 3; ++q) {
        worst[q] = std::max(worst[q], rel(got[q], want[q]));
        worst17[q] = std::max(worst17[q], rel(full[q], want[q]));
      }
      EXPECT_EQ(s.real_modes.e.size(), 1u);
      EXPECT_TRUE(s.complex_modes.e.empty());
    }
  }
  EXPECT_GT(samples, 80000);
  const char* names[3] = {"e^z", "phi1", "phi2"};
  for (int q = 0; q < 3; ++q) {
    EXPECT_LE(worst[q], worst17[q]) << names[q];
    EXPECT_LT(worst17[q], 0x1p-51) << names[q];  // the reference itself
  }
}

TEST(SpectralPropagator, RejectsBadArguments) {
  EXPECT_THROW(PropagatorFactory(RMatrix(2, 3), RMatrix{}),
               std::invalid_argument);
  EXPECT_THROW(PropagatorFactory(RMatrix(2, 2), RMatrix(3, 1)),
               std::invalid_argument);
  // Both the modal evaluation and the Van Loan build take a finite
  // h > 0.
  for (const PropagatorFactory& f :
       {PropagatorFactory(kAugA, kAugB),
        PropagatorFactory(RMatrix{{-1.0}}, RMatrix{{1.0}})}) {
    StepPropagator p;
    ModalStep s;
    for (double h : {0.0, -1.0, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
      EXPECT_THROW(f.make_into(h, p), std::invalid_argument) << h;
      if (f.is_spectral()) {
        EXPECT_THROW(f.evaluate(h, s), std::invalid_argument) << h;
      }
    }
  }
}

}  // namespace
}  // namespace htmpll
