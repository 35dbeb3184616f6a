#include "htmpll/core/htm.hpp"

#include <cmath>

#include "htmpll/linalg/lu.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll {

Htm::Htm(int truncation, double w0, cplx s)
    : k_(truncation), w0_(w0), s_(s), m_(dim(), dim()) {
  HTMPLL_REQUIRE(truncation >= 0, "HTM truncation must be non-negative");
  HTMPLL_REQUIRE(w0 > 0.0, "HTM fundamental frequency must be positive");
}

Htm Htm::identity(int truncation, double w0, cplx s) {
  Htm h(truncation, w0, s);
  h.m_ = CMatrix::identity(h.dim());
  return h;
}

std::size_t Htm::index(int n) const {
  HTMPLL_REQUIRE(n >= -k_ && n <= k_, "harmonic index outside truncation");
  return static_cast<std::size_t>(n + k_);
}

cplx& Htm::at(int n, int m) { return m_(index(n), index(m)); }
cplx Htm::at(int n, int m) const { return m_(index(n), index(m)); }

void Htm::require_compatible(const Htm& o, const char* op) const {
  HTMPLL_REQUIRE(k_ == o.k_, std::string("HTM truncation mismatch in ") + op);
  HTMPLL_REQUIRE(w0_ == o.w0_,
                 std::string("HTM fundamental mismatch in ") + op);
  HTMPLL_REQUIRE(s_ == o.s_,
                 std::string("HTM evaluation-point mismatch in ") + op);
}

Htm& Htm::operator+=(const Htm& o) {
  require_compatible(o, "operator+=");
  m_ += o.m_;
  return *this;
}

Htm& Htm::operator-=(const Htm& o) {
  require_compatible(o, "operator-=");
  m_ -= o.m_;
  return *this;
}

Htm operator*(const Htm& b, const Htm& a) {
  b.require_compatible(a, "operator*");
  Htm out(b.k_, b.w0_, b.s_);
  out.m_ = b.m_ * a.m_;
  return out;
}

CVector Htm::apply(const CVector& u) const {
  HTMPLL_REQUIRE(u.size() == dim(), "harmonic vector length mismatch");
  return m_ * u;
}

CVector Htm::ones() const { return CVector(dim(), cplx{1.0}); }

Htm closed_loop_dense(const Htm& g) {
  Htm out(g.truncation(), g.w0(), g.s());
  out.matrix() =
      CLu(CMatrix::identity(g.dim()) + g.matrix()).solve(g.matrix());
  return out;
}

Htm closed_loop_rank_one(const CVector& v, const Htm& prototype) {
  HTMPLL_REQUIRE(v.size() == prototype.dim(),
                 "rank-one vector length mismatch");
  // lambda = l^T v; closed loop = v l^T / (1 + lambda)  (eq. 34).
  cplx lambda{0.0};
  for (const cplx& x : v) lambda += x;
  const cplx denom = 1.0 + lambda;
  HTMPLL_REQUIRE(std::abs(denom) > 0.0,
                 "closed loop singular: 1 + lambda(s) == 0");
  Htm out(prototype.truncation(), prototype.w0(), prototype.s());
  for (std::size_t i = 0; i < v.size(); ++i) {
    const cplx value = v[i] / denom;
    for (std::size_t j = 0; j < v.size(); ++j) out.matrix()(i, j) = value;
  }
  return out;
}

}  // namespace htmpll
