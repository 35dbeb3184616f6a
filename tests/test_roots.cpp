#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>
#include <random>

#include <gtest/gtest.h>

#include "htmpll/lti/loop_filter.hpp"
#include "htmpll/lti/roots.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/ztrans/zdomain.hpp"

namespace htmpll {
namespace {

const cplx j{0.0, 1.0};

/// Matches each expected root to a distinct found root within tol.
void expect_roots_match(CVector found, CVector expected, double tol) {
  ASSERT_EQ(found.size(), expected.size());
  for (const cplx& e : expected) {
    auto best = found.end();
    double best_d = 1e300;
    for (auto it = found.begin(); it != found.end(); ++it) {
      const double d = std::abs(*it - e);
      if (d < best_d) {
        best_d = d;
        best = it;
      }
    }
    ASSERT_NE(best, found.end());
    EXPECT_LT(best_d, tol) << "expected root " << e.real() << "+"
                           << e.imag() << "j";
    found.erase(best);
  }
}

TEST(Roots, Linear) {
  const Polynomial p = Polynomial::from_real({-6.0, 2.0});  // 2s - 6
  const CVector r = find_roots(p);
  ASSERT_EQ(r.size(), 1u);
  EXPECT_NEAR(std::abs(r[0] - cplx{3.0}), 0.0, 1e-14);
}

TEST(Roots, QuadraticComplexPair) {
  // s^2 + 2s + 5 = (s+1)^2 + 4 -> -1 +- 2j
  const Polynomial p = Polynomial::from_real({5.0, 2.0, 1.0});
  expect_roots_match(find_roots(p), {-1.0 + 2.0 * j, -1.0 - 2.0 * j}, 1e-12);
}

TEST(Roots, QuadraticNearCancellation) {
  // Roots 1e-6 and 1e6: naive formula loses the small root.
  const Polynomial p =
      Polynomial::from_roots({cplx{1e-6}, cplx{1e6}});
  const CVector r = find_roots(p);
  std::vector<double> mags{std::abs(r[0]), std::abs(r[1])};
  std::sort(mags.begin(), mags.end());
  EXPECT_NEAR(mags[0] / 1e-6, 1.0, 1e-9);
  EXPECT_NEAR(mags[1] / 1e6, 1.0, 1e-9);
}

TEST(Roots, ZeroRootsStripped) {
  // s^2 (s - 2)
  const Polynomial p = Polynomial::from_real({0.0, 0.0, -2.0, 1.0});
  const CVector r = find_roots(p);
  ASSERT_EQ(r.size(), 3u);
  int zeros = 0;
  for (const cplx& x : r) {
    if (std::abs(x) < 1e-12) ++zeros;
  }
  EXPECT_EQ(zeros, 2);
}

TEST(Roots, ConstantHasNoRoots) {
  EXPECT_TRUE(find_roots(Polynomial::constant(3.0)).empty());
}

TEST(Roots, ZeroPolynomialThrows) {
  EXPECT_THROW(find_roots(Polynomial()), std::invalid_argument);
}

TEST(Roots, NonFiniteCoefficientThrows) {
  // Unchecked, a NaN ends the sweeps after one (max(0, NaN) is 0) with
  // finite roots such as (1.147, 0.966), and an infinity strips every
  // coefficient as a zero root, returning three zeros.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW(find_roots(Polynomial::from_real({1.0, nan, 2.0, 1.0})),
               std::invalid_argument);
  EXPECT_THROW(find_roots(Polynomial::from_real({1.0, inf, 2.0, 1.0})),
               std::invalid_argument);
  EXPECT_THROW(find_roots(Polynomial::from_real({1.0, 2.0, -inf})),
               std::invalid_argument);
  EXPECT_THROW(find_roots(Polynomial(CVector{cplx{1.0}, cplx{0.0, nan}})),
               std::invalid_argument);
}

TEST(Roots, CubicWithKnownRoots) {
  const CVector expected{cplx{-1.0}, cplx{-2.0}, cplx{-10.0}};
  const Polynomial p = Polynomial::from_roots(expected, 4.0);
  expect_roots_match(find_roots(p), expected, 1e-9);
}

TEST(Roots, DoubleRootClusterDetected) {
  // (s+1)^2 (s+5)
  const Polynomial p =
      Polynomial::from_roots({cplx{-1.0}, cplx{-1.0}, cplx{-5.0}});
  const CVector r = find_roots(p);
  const auto clusters = cluster_roots(r, 1e-4);
  ASSERT_EQ(clusters.size(), 2u);
  int total = 0;
  for (const auto& c : clusters) {
    total += c.multiplicity;
    if (c.multiplicity == 2) {
      EXPECT_NEAR(std::abs(c.value - cplx{-1.0}), 0.0, 1e-5);
    } else {
      EXPECT_NEAR(std::abs(c.value - cplx{-5.0}), 0.0, 1e-7);
    }
  }
  EXPECT_EQ(total, 3);
}

TEST(Roots, CauchyBoundContainsRoots) {
  const Polynomial p = Polynomial::from_real({-10.0, 3.0, -2.0, 1.0});
  const double bound = cauchy_root_bound(p);
  for (const cplx& r : find_roots(p)) {
    EXPECT_LE(std::abs(r), bound + 1e-9);
  }
}

class RootsRandomReconstruction : public ::testing::TestWithParam<int> {};

TEST_P(RootsRandomReconstruction, RecoversRandomSimpleRoots) {
  std::mt19937 rng(7u + static_cast<unsigned>(GetParam()));
  std::uniform_real_distribution<double> re(-3.0, 3.0);
  const int n = GetParam();
  // Redraw until the roots are well separated (simple-root test).
  CVector expected;
  for (int attempt = 0; attempt < 200; ++attempt) {
    expected.clear();
    for (int i = 0; i < n; ++i) {
      expected.push_back(cplx{re(rng), re(rng)});
    }
    bool ok = true;
    for (std::size_t a = 0; a < expected.size(); ++a) {
      for (std::size_t b = a + 1; b < expected.size(); ++b) {
        if (std::abs(expected[a] - expected[b]) < 0.2) ok = false;
      }
    }
    if (ok) break;
    expected.clear();
  }
  ASSERT_FALSE(expected.empty()) << "could not draw separated roots";
  const Polynomial p = Polynomial::from_roots(expected, cplx{1.5, 0.5});
  expect_roots_match(find_roots(p), expected, 1e-7);
}

INSTANTIATE_TEST_SUITE_P(Degrees, RootsRandomReconstruction,
                         ::testing::Values(3, 4, 5, 6, 8, 10, 12, 16, 20));

// ---- rounding-floor exit vs the loop without it ------------------------

/// find_roots's Aberth loop without the rounding-floor exit (it sweeps
/// until the step tolerance or max_iterations), followed by the same
/// Newton polish.  Degree >= 3 and a nonzero constant term only, so the
/// zero stripping and closed forms of find_roots do not apply.
CVector aberth_without_floor_exit(const Polynomial& q, int* sweeps) {
  const RootOptions opts;
  const std::size_t n = q.degree();
  const double radius = 0.5 * cauchy_root_bound(q);
  CVector z(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double angle =
        2.0 * std::numbers::pi * static_cast<double>(k) /
            static_cast<double>(n) + 0.7;
    z[k] = radius * cplx{std::cos(angle), std::sin(angle)};
  }
  const Polynomial dq = q.derivative();
  *sweeps = 0;
  for (int it = 0; it < opts.max_iterations; ++it) {
    ++*sweeps;
    double worst = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const cplx pk = q(z[k]);
      const cplx dk = dq(z[k]);
      const cplx newton = std::abs(dk) > 0.0
                              ? pk / dk
                              : cplx{opts.tolerance, opts.tolerance};
      cplx repulse{0.0};
      for (std::size_t m = 0; m < n; ++m) {
        if (m == k) continue;
        const cplx diff = z[k] - z[m];
        if (std::abs(diff) > 1e-300) repulse += 1.0 / diff;
      }
      const cplx denom = 1.0 - newton * repulse;
      const cplx step = (std::abs(denom) > 1e-300) ? newton / denom : newton;
      z[k] -= step;
      worst = std::max(worst, std::abs(step) / std::max(1.0, std::abs(z[k])));
    }
    if (worst < opts.tolerance) break;
  }
  for (cplx& r : z) {
    const cplx d = dq(r);
    if (std::abs(d) > 0.0) {
      const cplx step = q(r) / d;
      if (std::abs(step) < 0.5 * std::max(1.0, std::abs(r))) r -= step;
    }
  }
  return z;
}

/// Worst normwise backward error over the roots, in units of eps:
/// |p(r)| / sum_i |c_i| |r|^i.
double backward_error_eps(const Polynomial& p, const CVector& roots) {
  const CVector& c = p.coefficients();
  double worst = 0.0;
  for (const cplx& r : roots) {
    cplx value{0.0};
    double scale = 0.0;
    for (std::size_t i = c.size(); i-- > 0;) {
      value = value * r + c[i];
      scale = scale * std::abs(r) + std::abs(c[i]);
    }
    worst = std::max(worst, std::abs(value) / scale);
  }
  return worst / std::numeric_limits<double>::epsilon();
}

/// Largest relative distance from a root in `a` to its nearest
/// unclaimed partner in `b`.
double worst_relative_mismatch(const CVector& a, CVector b) {
  double worst = 0.0;
  for (const cplx& x : a) {
    const auto it = std::min_element(
        b.begin(), b.end(), [&](const cplx& u, const cplx& v) {
          return std::abs(u - x) < std::abs(v - x);
        });
    worst = std::max(worst, std::abs(*it - x) / std::abs(x));
    b.erase(it);
  }
  return worst;
}

/// find_roots with the lti.aberth_sweeps counter read around it.
CVector find_roots_counting(const Polynomial& p, std::uint64_t* sweeps) {
  const bool was = obs::enabled();
  obs::enable();
  obs::Counter& c = obs::counter("lti.aberth_sweeps");
  const std::uint64_t before = c.value();
  CVector roots = find_roots(p);
  *sweeps = c.value() - before;
  if (!was) obs::disable();
  return roots;
}

TEST(Roots, FloorExitEndsStalledDesignCubics) {
  // z-domain characteristic cubics of slow typical loops: the real
  // root's imaginary part decays into subnormals and the largest step
  // cycles at ~1e-13..4e-13, just above the tolerance, so the loop
  // without the floor exit runs all 200 sweeps.
  const double w0 = 2.0 * std::numbers::pi * 1e6;
  for (const auto& [gamma, ratio] :
       {std::pair{2.5, 0.005}, {2.5, 0.0055}, {4.0, 0.005}}) {
    const Polynomial q =
        ImpulseInvariantModel(
            make_typical_loop(ratio * w0, w0, gamma).open_loop_gain(), w0)
            .characteristic();
    ASSERT_EQ(q.degree(), 3u);
    int reference_sweeps = 0;
    const CVector reference = aberth_without_floor_exit(q, &reference_sweeps);
    std::uint64_t sweeps = 0;
    const CVector roots = find_roots_counting(q, &sweeps);
    EXPECT_EQ(reference_sweeps, 200) << "gamma " << gamma << " ratio " << ratio;
    EXPECT_LE(sweeps, 20u) << "gamma " << gamma << " ratio " << ratio;
    EXPECT_LE(worst_relative_mismatch(roots, reference), 1e-10)
        << "gamma " << gamma << " ratio " << ratio;
  }
}

TEST(Roots, FloorExitNeverRaisesBackwardError) {
  // Random polynomials of two kinds: well-separated roots of mixed
  // magnitude, and a near-double pair (relative separation 1e-8..1e-5)
  // whose resolution makes the step wander before it converges.  An
  // exit that fired mid-resolution would leave a backward error far
  // above the loop without the exit.  At the floor both stop at
  // arbitrary points of the rounding noise, so allow a few eps there:
  // every backward error must stay within max(reference, 8 eps).
  std::mt19937 rng(2024u);
  std::uniform_real_distribution<double> u(0.0, 1.0);
  const auto random_root = [&] {
    return std::polar(std::pow(10.0, 2.0 * u(rng) - 1.0),
                      2.0 * std::numbers::pi * u(rng));
  };
  int stalled = 0;
  for (int trial = 0; trial < 1600; ++trial) {
    const int degree = 3 + static_cast<int>(u(rng) * 4.0);
    CVector roots;
    if (trial % 4 != 0) {
      // Real centers half the time, as for real-coefficient loops.
      const double angle =
          u(rng) < 0.5 ? 0.0 : 2.0 * std::numbers::pi * u(rng);
      const cplx center = std::polar(0.3 + 0.7 * u(rng), angle);
      const double sep = std::pow(10.0, -8.0 + 3.0 * u(rng));
      roots.push_back(center);
      roots.push_back(center *
                      (1.0 + sep * std::polar(1.0, 2.0 * std::numbers::pi *
                                                       u(rng))));
    }
    while (static_cast<int>(roots.size()) < degree) {
      roots.push_back(random_root());
    }
    const Polynomial p = Polynomial::from_roots(roots);
    int reference_sweeps = 0;
    const CVector reference = aberth_without_floor_exit(p, &reference_sweeps);
    if (reference_sweeps == 200) ++stalled;
    const double reference_error = backward_error_eps(p, reference);
    const double error = backward_error_eps(p, find_roots(p));
    EXPECT_LE(error, std::max(reference_error, 8.0))
        << "trial " << trial << " degree " << degree;
  }
  // The draw must exercise the exit: many of these stall without it.
  EXPECT_GT(stalled, 100);
}

}  // namespace
}  // namespace htmpll
