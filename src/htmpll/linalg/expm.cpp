#include "htmpll/linalg/expm.hpp"

#include <cmath>

#include "htmpll/linalg/lu.hpp"
#include "htmpll/obs/metrics.hpp"

namespace htmpll {

namespace {

/// (6,6) Pade approximant to exp on a pre-scaled matrix (norm <= 0.5).
RMatrix pade6(const RMatrix& a) {
  constexpr int q = 6;
  const std::size_t n = a.rows();
  // c_k = c_{k-1} * (q-k+1) / ((2q-k+1) k)
  double c[q + 1];
  c[0] = 1.0;
  for (int k = 1; k <= q; ++k) {
    c[k] = c[k - 1] * static_cast<double>(q - k + 1) /
           static_cast<double>((2 * q - k + 1) * k);
  }
  const RMatrix a2 = a * a;
  // Split the polynomial into even and odd parts so that
  // N = E + A*O, D = E - A*O.
  RMatrix even = RMatrix::identity(n) * c[0];
  RMatrix odd = RMatrix::identity(n) * c[1];
  RMatrix power = RMatrix::identity(n);  // A^(2j)
  for (int j = 1; 2 * j <= q; ++j) {
    power = power * a2;
    even += power * c[2 * j];
    if (2 * j + 1 <= q) odd += power * c[2 * j + 1];
  }
  const RMatrix a_odd = a * odd;
  const RMatrix num = even + a_odd;
  const RMatrix den = even - a_odd;
  return RLu(den).solve(num);
}

}  // namespace

RMatrix expm(const RMatrix& a) {
  static obs::Counter& c_evals = obs::counter("linalg.expm_evals");
  c_evals.add();
  HTMPLL_REQUIRE(a.is_square(), "expm requires a square matrix");
  for (const double v : a.data()) {
    HTMPLL_REQUIRE(std::isfinite(v), "expm: input has non-finite entries");
  }
  if (a.rows() == 0) return a;
  const double nrm = a.norm_inf();
  int s = 0;
  if (nrm > 0.5) {
    s = static_cast<int>(std::ceil(std::log2(nrm / 0.5)));
  }
  RMatrix scaled = a * std::ldexp(1.0, -s);
  RMatrix e = pade6(scaled);
  for (int i = 0; i < s; ++i) e = e * e;
  return e;
}

StepPropagator make_propagator(const RMatrix& a, const RMatrix& b, double h) {
  HTMPLL_REQUIRE(a.is_square(), "make_propagator: A must be square");
  HTMPLL_REQUIRE(h > 0.0, "make_propagator: step must be positive");
  const std::size_t n = a.rows();
  const std::size_t m = b.empty() ? 0 : b.cols();
  if (m > 0) {
    HTMPLL_REQUIRE(b.rows() == n, "make_propagator: B row count mismatch");
  }

  // Augmented Van Loan matrix, scaled by h:
  //   [ A  B ]
  //   [ 0  0 ]
  const std::size_t dim = n + m;
  RMatrix aug(dim, dim);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) aug(i, j) = a(i, j) * h;
  }
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < m; ++j) aug(i, n + j) = b(i, j) * h;
  }

  const RMatrix e = expm(aug);

  StepPropagator p;
  p.phi0 = RMatrix(n, n);
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) p.phi0(i, j) = e(i, j);
  }
  if (m > 0) {
    p.gamma1 = RMatrix(n, m);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < m; ++j) p.gamma1(i, j) = e(i, n + j);
    }
  }
  return p;
}

RVector StepPropagator::advance(const RVector& x0, const RVector& u) const {
  RVector x = phi0 * x0;
  if (!gamma1.empty()) {
    const RVector a = gamma1 * u;
    for (std::size_t i = 0; i < x.size(); ++i) x[i] += a[i];
  }
  return x;
}

void StepPropagator::advance_into(const RVector& x0, double u,
                                  RVector& out) const {
  HTMPLL_ASSERT(gamma1.empty() || gamma1.cols() == 1);
  const std::size_t n = phi0.rows();
  out.resize(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double* arow = phi0.row(i);
    double acc = 0.0;
    for (std::size_t j = 0; j < n; ++j) acc += arow[j] * x0[j];
    out[i] = acc;
  }
  if (!gamma1.empty()) {
    // The leading 0.0 + matches the zero-initialized accumulator of the
    // matrix-vector product in advance(); without it a -0.0 product
    // would flip the sign bit of a -0.0 state entry.
    for (std::size_t i = 0; i < n; ++i) {
      out[i] += 0.0 + gamma1.row(i)[0] * u;
    }
  }
}

}  // namespace htmpll
