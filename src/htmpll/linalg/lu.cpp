#include "htmpll/linalg/lu.hpp"

#include <cmath>
#include <stdexcept>

namespace htmpll {

template <class T>
LuDecomposition<T>::LuDecomposition(DenseMatrix<T> a) : lu_(std::move(a)) {
  HTMPLL_REQUIRE(lu_.is_square(), "LU requires a square matrix");
  const std::size_t n = lu_.rows();
  perm_.resize(n);
  for (std::size_t i = 0; i < n; ++i) perm_[i] = i;

  for (std::size_t k = 0; k < n; ++k) {
    // Partial pivot: largest |entry| in column k at or below the diagonal.
    std::size_t piv = k;
    double best = std::abs(lu_(k, k));
    for (std::size_t i = k + 1; i < n; ++i) {
      const double v = std::abs(lu_(i, k));
      if (v > best) {
        best = v;
        piv = i;
      }
    }
    if (best == 0.0) {
      throw std::domain_error("htmpll: LU: matrix is numerically singular");
    }
    if (piv != k) {
      for (std::size_t j = 0; j < n; ++j) std::swap(lu_(k, j), lu_(piv, j));
      std::swap(perm_[k], perm_[piv]);
      ++swaps_;
    }
    const T pivot = lu_(k, k);
    for (std::size_t i = k + 1; i < n; ++i) {
      const T m = lu_(i, k) / pivot;
      lu_(i, k) = m;
      if (m == T{}) continue;
      for (std::size_t j = k + 1; j < n; ++j) lu_(i, j) -= m * lu_(k, j);
    }
  }
}

template <class T>
void LuDecomposition<T>::substitute(T* x) const {
  // Forward- and back-substitution on one (already permuted) RHS with
  // hoisted row pointers.
  const std::size_t n = order();
  for (std::size_t i = 0; i < n; ++i) {
    const T* lrow = lu_.row(i);
    T acc = x[i];
    for (std::size_t j = 0; j < i; ++j) acc -= lrow[j] * x[j];
    x[i] = acc;
  }
  for (std::size_t ii = n; ii-- > 0;) {
    const T* urow = lu_.row(ii);
    T acc = x[ii];
    for (std::size_t j = ii + 1; j < n; ++j) acc -= urow[j] * x[j];
    x[ii] = acc / urow[ii];
  }
}

template <class T>
std::vector<T> LuDecomposition<T>::solve(std::vector<T> b) const {
  const std::size_t n = order();
  HTMPLL_REQUIRE(b.size() == n, "LU solve: rhs length mismatch");
  std::vector<T> x(n);
  for (std::size_t i = 0; i < n; ++i) x[i] = b[perm_[i]];
  substitute(x.data());
  return x;
}

template <class T>
DenseMatrix<T> LuDecomposition<T>::solve(const DenseMatrix<T>& b) const {
  const std::size_t n = order();
  HTMPLL_REQUIRE(b.rows() == n, "LU solve: rhs row count mismatch");
  // Transposed-RHS kernel: each right-hand side becomes one contiguous
  // row, so permutation and both substitutions stream linear memory
  // instead of striding column-wise through b.
  DenseMatrix<T> xt(b.cols(), n);
  for (std::size_t r = 0; r < b.cols(); ++r) {
    T* x = xt.row(r);
    for (std::size_t i = 0; i < n; ++i) x[i] = b(perm_[i], r);
    substitute(x);
  }
  return xt.transpose();
}

template <class T>
DenseMatrix<T> LuDecomposition<T>::inverse() const {
  return solve(DenseMatrix<T>::identity(order()));
}

template <class T>
T LuDecomposition<T>::determinant() const {
  T det = (swaps_ % 2 == 0) ? T{1} : T{-1};
  for (std::size_t i = 0; i < order(); ++i) det *= lu_(i, i);
  return det;
}

template class LuDecomposition<cplx>;
template class LuDecomposition<double>;

CMatrix inverse(const CMatrix& a) { return CLu(a).inverse(); }
RMatrix inverse(const RMatrix& a) { return RLu(a).inverse(); }
CVector solve(const CMatrix& a, const CVector& b) { return CLu(a).solve(b); }
RVector solve(const RMatrix& a, const RVector& b) { return RLu(a).solve(b); }

}  // namespace htmpll
