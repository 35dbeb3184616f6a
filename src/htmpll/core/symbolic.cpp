#include "htmpll/core/symbolic.hpp"

#include <sstream>

#include "htmpll/util/check.hpp"

namespace htmpll {

LambdaExpression::LambdaExpression(const RationalFunction& a, double w0)
    : w0_(w0) {
  HTMPLL_REQUIRE(w0_ > 0.0, "LambdaExpression needs w0 > 0");
  HTMPLL_REQUIRE(a.is_strictly_proper(),
                 "lambda closed form requires strictly proper A(s)");
  const PartialFractions pf(a);
  for (const PoleTerm& term : pf.terms()) {
    HTMPLL_REQUIRE(term.residues.size() <= 3,
                   "pole multiplicity must be <= 3 so that the derivative "
                   "stays within the implemented S_k family");
    for (std::size_t j = 0; j < term.residues.size(); ++j) {
      if (term.residues[j] == cplx{0.0}) continue;
      terms_.push_back(CothTerm{term.residues[j], term.pole,
                                static_cast<int>(j) + 1});
    }
  }
}

namespace {

std::string format_complex(cplx c) {
  std::ostringstream os;
  os.precision(6);
  if (std::abs(c.imag()) < 1e-14 * std::max(1.0, std::abs(c.real()))) {
    os << c.real();
  } else {
    os << '(' << c.real() << (c.imag() < 0.0 ? '-' : '+')
       << std::abs(c.imag()) << "j)";
  }
  return os.str();
}

}  // namespace

std::string LambdaExpression::to_string() const {
  if (terms_.empty()) return "0";
  std::ostringstream os;
  bool first = true;
  for (const CothTerm& t : terms_) {
    if (!first) os << " + ";
    first = false;
    os << format_complex(t.residue) << "*S" << t.order << "(s-"
       << format_complex(t.pole) << ')';
  }
  os << "   [S1(x) = (pi/w0) coth(pi x/w0), S_{k+1} = -(1/k) S_k']";
  return os.str();
}

}  // namespace htmpll
