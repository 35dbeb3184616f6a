// Truncated harmonic transfer matrices (HTMs).
//
// An LPTV system with period T = 2pi/w0 maps the stacked signal vector
// U~(s) = [... U(s-jw0), U(s), U(s+jw0) ...]^T to Y~(s) = H(s) U~(s)
// (eqs. 4-6).  Element H_{n,m}(s) carries signal content from the band
// around m*w0 at the input to the band around n*w0 at the output (Fig. 2).
//
// This class is an HTM *evaluated at one complex frequency s*, truncated
// to harmonics |n| <= K: a (2K+1)x(2K+1) complex matrix plus the (K, w0,
// s) metadata needed to compose blocks safely.  Series composition is
// matrix multiplication in operator order (eq. 11), parallel composition
// is addition (eq. 10).
#pragma once

#include "htmpll/linalg/matrix.hpp"

namespace htmpll {

class Htm {
 public:
  /// Zero HTM with harmonics |n| <= K at evaluation point s.
  Htm(int truncation, double w0, cplx s);

  static Htm identity(int truncation, double w0, cplx s);

  int truncation() const { return k_; }
  std::size_t dim() const { return 2 * static_cast<std::size_t>(k_) + 1; }
  double w0() const { return w0_; }
  cplx s() const { return s_; }

  /// Harmonic-indexed access, n, m in [-K, K].
  cplx& at(int n, int m);
  cplx at(int n, int m) const;

  const CMatrix& matrix() const { return m_; }
  CMatrix& matrix() { return m_; }

  /// Row/column index of harmonic n.
  std::size_t index(int n) const;

  /// Parallel connection (eq. 10).
  Htm& operator+=(const Htm& o);
  friend Htm operator+(Htm a, const Htm& b) {
    a += b;
    return a;
  }
  Htm& operator-=(const Htm& o);
  friend Htm operator-(Htm a, const Htm& b) {
    a -= b;
    return a;
  }

  /// Series connection y = b[a[u]] is b * a (eq. 11).
  friend Htm operator*(const Htm& b, const Htm& a);

  friend Htm operator*(cplx scale, Htm h) {
    h.m_ *= scale;
    return h;
  }

  /// Apply to a stacked harmonic signal vector (length 2K+1).
  CVector apply(const CVector& u) const;

  /// The all-ones vector l of eq. 20 (length 2K+1).
  CVector ones() const;

  /// Checks (K, w0, s) compatibility with another HTM.
  void require_compatible(const Htm& o, const char* op) const;

  /// Largest |H_{n,m}| over the matrix.
  double max_abs() const { return m_.max_abs(); }

 private:
  int k_;
  double w0_;
  cplx s_;
  CMatrix m_;
};

/// Dense closed-loop solve (I + G)^{-1} * G by LU; the reference
/// implementation the rank-one closed form (eqs. 31-34) is checked
/// against.
Htm closed_loop_dense(const Htm& g);

/// Sherman-Morrison closed form for rank-one G = v * l^T (eq. 32-34):
/// returns (I + v l^T)^{-1} (v l^T) = v l^T / (1 + l^T v).
Htm closed_loop_rank_one(const CVector& v, const Htm& prototype);

}  // namespace htmpll
