#include "htmpll/lti/roots.hpp"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <limits>
#include <numbers>

#include "htmpll/obs/metrics.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll {

double cauchy_root_bound(const Polynomial& p) {
  const CVector& c = p.coefficients();
  const double lead = std::abs(c.back());
  HTMPLL_REQUIRE(lead > 0.0, "root bound of the zero polynomial");
  double m = 0.0;
  for (std::size_t i = 0; i + 1 < c.size(); ++i) {
    m = std::max(m, std::abs(c[i]) / lead);
  }
  return 1.0 + m;
}

namespace {

obs::Counter& aberth_sweeps_counter() {
  static obs::Counter& c = obs::counter("lti.aberth_sweeps");
  return c;
}

/// Strips roots at exactly zero (trailing zero low-order coefficients) so
/// the Aberth iteration never needs to divide a zero-valued guess.
std::size_t strip_zero_roots(CVector& coeffs) {
  double maxmag = 0.0;
  for (const cplx& c : coeffs) maxmag = std::max(maxmag, std::abs(c));
  std::size_t count = 0;
  while (coeffs.size() > 1 && std::abs(coeffs.front()) <= 1e-300 * maxmag) {
    coeffs.erase(coeffs.begin());
    ++count;
  }
  return count;
}

}  // namespace

CVector find_roots(const Polynomial& p, const RootOptions& opts) {
  HTMPLL_REQUIRE(!p.is_zero(), "cannot find roots of the zero polynomial");
  // A NaN would stall the sweeps' step test (max(0, NaN) is 0) and an
  // infinity would strip every coefficient as a zero root: both return
  // roots that mean nothing.
  for (const cplx& c : p.coefficients()) {
    HTMPLL_REQUIRE(std::isfinite(c.real()) && std::isfinite(c.imag()),
                   "cannot find roots of a polynomial with a non-finite "
                   "coefficient");
  }
  CVector coeffs = p.coefficients();
  const std::size_t zeros = strip_zero_roots(coeffs);
  Polynomial q{CVector(coeffs)};
  const std::size_t n = q.degree();

  CVector roots(zeros, cplx{0.0});
  if (n == 0) return roots;

  // Closed forms for low degree keep the common cases exact.
  if (n == 1) {
    roots.push_back(-q.coefficient(0) / q.coefficient(1));
    return roots;
  }
  if (n == 2) {
    const cplx a = q.coefficient(2), b = q.coefficient(1), c = q.coefficient(0);
    const cplx d = std::sqrt(b * b - 4.0 * a * c);
    // Use the numerically stable pairing (avoid cancellation).
    const cplx bp = (std::real(std::conj(b) * d) >= 0.0) ? b + d : b - d;
    if (std::abs(bp) > 0.0) {
      const cplx r1 = -bp / (2.0 * a);
      const cplx r2 = c / (a * r1);
      roots.push_back(r1);
      roots.push_back(r2);
    } else {
      roots.push_back(cplx{0.0});
      roots.push_back(cplx{0.0});
    }
    return roots;
  }

  // Aberth-Ehrlich from points on a slightly asymmetric circle inside the
  // Cauchy bound (asymmetry breaks symmetric stagnation).
  const double radius = 0.5 * cauchy_root_bound(q);
  CVector z(n);
  for (std::size_t k = 0; k < n; ++k) {
    const double angle =
        2.0 * std::numbers::pi * static_cast<double>(k) /
            static_cast<double>(n) + 0.7;
    z[k] = radius * cplx{std::cos(angle), std::sin(angle)};
  }

  const Polynomial dq = q.derivative();
  // Above the rounding floor every sweep shrinks the largest relative
  // step, except while a near-multiple pair resolves: its steps wander
  // around the pair's separation, which can be as small as sqrt(eps)
  // ~ 1.5e-8.  Below kFloorStep a sweep that fails to shrink the step
  // is cycling at the floor (the tolerance can lie below it), so more
  // sweeps cannot improve the roots.
  constexpr double kFloorStep = 1e-9;
  double prev_worst = std::numeric_limits<double>::infinity();
  int sweeps = 0;
  for (int it = 0; it < opts.max_iterations; ++it) {
    ++sweeps;
    double worst = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      const cplx pk = q(z[k]);
      const cplx dk = dq(z[k]);
      cplx newton;
      if (std::abs(dk) > 0.0) {
        newton = pk / dk;
      } else {
        newton = cplx{opts.tolerance, opts.tolerance};
      }
      cplx repulse{0.0};
      for (std::size_t j = 0; j < n; ++j) {
        if (j == k) continue;
        const cplx diff = z[k] - z[j];
        if (std::abs(diff) > 1e-300) repulse += 1.0 / diff;
      }
      const cplx denom = 1.0 - newton * repulse;
      const cplx step = (std::abs(denom) > 1e-300) ? newton / denom : newton;
      z[k] -= step;
      const double rel = std::abs(step) / std::max(1.0, std::abs(z[k]));
      worst = std::max(worst, rel);
    }
    if (worst < opts.tolerance) break;
    if (worst < kFloorStep && worst >= prev_worst) break;
    prev_worst = worst;
  }
  aberth_sweeps_counter().add(static_cast<std::uint64_t>(sweeps));

  // One Newton polish per root for good measure (helps simple roots;
  // multiple roots keep their cluster accuracy ~ tol^(1/m), which the
  // caller handles via cluster_roots).
  for (cplx& r : z) {
    const cplx d = dq(r);
    if (std::abs(d) > 0.0) {
      const cplx step = q(r) / d;
      if (std::abs(step) < 0.5 * std::max(1.0, std::abs(r))) r -= step;
    }
  }

  roots.insert(roots.end(), z.begin(), z.end());
  return roots;
}

std::vector<RootCluster> cluster_roots(const CVector& roots, double tol) {
  // Transitive (union-find) clustering: a multiplicity-m root scatters
  // into an eps^(1/m)-radius cloud whose diameter can exceed the
  // pairwise tolerance, so anchoring on one member is not enough --
  // chains of close roots must merge.
  const std::size_t n = roots.size();
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  auto find = [&parent](std::size_t i) {
    while (parent[i] != i) {
      parent[i] = parent[parent[i]];
      i = parent[i];
    }
    return i;
  };
  for (std::size_t i = 0; i < n; ++i) {
    const double scale = std::max(1.0, std::abs(roots[i]));
    for (std::size_t k = i + 1; k < n; ++k) {
      if (std::abs(roots[k] - roots[i]) <= tol * scale) {
        parent[find(k)] = find(i);
      }
    }
  }
  std::vector<RootCluster> clusters;
  std::vector<std::size_t> cluster_of(n, SIZE_MAX);
  for (std::size_t i = 0; i < n; ++i) {
    const std::size_t root = find(i);
    if (cluster_of[root] == SIZE_MAX) {
      cluster_of[root] = clusters.size();
      clusters.push_back({cplx{0.0}, 0});
    }
    RootCluster& c = clusters[cluster_of[root]];
    c.value += roots[i];
    ++c.multiplicity;
  }
  for (RootCluster& c : clusters) {
    c.value /= static_cast<double>(c.multiplicity);
  }
  return clusters;
}

}  // namespace htmpll
