// Symbolic closed forms for the effective open-loop gain lambda(s).
//
// The paper stresses that the HTM method "can be used to obtain both
// numerical results and symbolic expressions".  This module makes the
// symbolic side concrete: lambda(s) = sum_m A(s + j m w0) for rational A
// is *exactly*
//
//   lambda(s) = sum_i sum_{k=1..m_i} r_ik * S_k(s - p_i),
//   S_1(x) = (pi/w0) coth(pi x / w0),   S_{k+1} = -(1/k) dS_k/dx,
//
// a finite combination of coth/csch^2 terms.  LambdaExpression carries
// that structure explicitly and prints it.  SamplingPllModel evaluates
// the same sum: point-wise through AliasingSum::exact, on grids through
// its compiled plan, which also differentiates it (dS_k/ds =
// -k S_{k+1}) for the Newton pole search in pole_search.hpp.
#pragma once

#include <string>
#include <vector>

#include "htmpll/core/aliasing_sum.hpp"
#include "htmpll/lti/partial_fractions.hpp"

namespace htmpll {

/// One r * S_k(s - p) building block.
struct CothTerm {
  cplx residue;  ///< r
  cplx pole;     ///< p (s-plane pole of A)
  int order;     ///< k in S_k
};

class LambdaExpression {
 public:
  /// Builds the closed form from the open-loop gain A(s).  Requires A
  /// strictly proper with pole multiplicities <= 3 (the range the
  /// analytic derivative covers: it raises the order by one, and S_k is
  /// implemented through k = 4).
  LambdaExpression(const RationalFunction& a, double w0);

  double w0() const { return w0_; }
  const std::vector<CothTerm>& terms() const { return terms_; }

  /// Human-readable closed form, e.g.
  ///   (0.3-0.1j)*S1(s-(-2+0j)) + 1.2*S2(s-0) ...
  /// with S_k(x) = sum_m 1/(x + j m w0)^k == coth-family closed forms.
  std::string to_string() const;

 private:
  double w0_ = 0.0;
  std::vector<CothTerm> terms_;
};

}  // namespace htmpll
