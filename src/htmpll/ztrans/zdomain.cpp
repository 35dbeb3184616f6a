#include "htmpll/ztrans/zdomain.hpp"

#include <cmath>
#include <numbers>

#include "htmpll/lti/roots.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll {

namespace {

bool finite(cplx z) {
  return std::isfinite(z.real()) && std::isfinite(z.imag());
}

/// Numerator of the z-transform of the sampled sequence
/// a_n = r (nT)^(k-1) e^(p nT) / (k-1)!, over denominator (z-q)^k:
///   k=1: r z
///   k=2: r T q z
///   k=3: r T^2 q z (z+q) / 2
///   k=4: r T^3 q z (z^2+4qz+q^2) / 6
/// with q = e^{pT}.
Polynomial sampled_term_numerator(cplx r, cplx q, double t, int k) {
  const Polynomial z = Polynomial::s();
  switch (k) {
    case 1:
      return r * z;
    case 2:
      return (r * t * q) * z;
    case 3:
      return (r * t * t * q / 2.0) * z * Polynomial(CVector{q, cplx{1.0}});
    case 4:
      return (r * t * t * t * q / 6.0) * z *
             Polynomial(CVector{q * q, 4.0 * q, cplx{1.0}});
    default:
      HTMPLL_REQUIRE(false,
                     "impulse-invariant transform supports multiplicity <= 4");
  }
  return {};
}

}  // namespace

ImpulseInvariantModel::ImpulseInvariantModel(RationalFunction a, double w0)
    : a_(std::move(a)), w0_(w0) {
  HTMPLL_REQUIRE(w0_ > 0.0, "sampling rate must be positive");
  HTMPLL_REQUIRE(a_.is_strictly_proper(),
                 "impulse invariance requires strictly proper A(s)");
  const double t = period();
  const PartialFractions pf(a_);

  // Assemble G(z) = T * Z{a(nT)} over the exact common denominator
  // D(z) = prod_i (z - q_i)^{m_i}.  Summing RationalFunctions naively
  // would square up the denominator and leave uncancelled common
  // factors (e.g. (z-1) from the double integrator), corrupting the
  // closed-loop characteristic polynomial near the unit circle.
  a0_ = cplx{0.0};
  struct ClusterZ {
    cplx q;
    Polynomial numerator;  // over (z - q)^m
    int multiplicity;
  };
  std::vector<ClusterZ> clusters;
  for (const PoleTerm& term : pf.terms()) {
    const cplx q = std::exp(term.pole * t);
    HTMPLL_REQUIRE(finite(q),
                   "impulse-invariant pole factor e^{pT} is not finite: A(s) "
                   "has a pole too far in the right half plane");
    const int m = static_cast<int>(term.residues.size());
    const Polynomial zmq(CVector{-q, cplx{1.0}});
    Polynomial num;  // sum_k N_k(z) (z-q)^(m-k)
    for (int k = 1; k <= m; ++k) {
      Polynomial part = sampled_term_numerator(
          term.residues[static_cast<std::size_t>(k - 1)], q, t, k);
      for (int extra = 0; extra < m - k; ++extra) part *= zmq;
      num += part;
    }
    clusters.push_back({q, num, m});
    a0_ += term.residues[0];  // t^0 terms contribute a(0+)
  }

  Polynomial den = Polynomial::constant(1.0);
  for (const ClusterZ& c : clusters) {
    const Polynomial zmq(CVector{-c.q, cplx{1.0}});
    for (int i = 0; i < c.multiplicity; ++i) den *= zmq;
  }
  Polynomial num;
  for (std::size_t i = 0; i < clusters.size(); ++i) {
    Polynomial complement = clusters[i].numerator;
    for (std::size_t l = 0; l < clusters.size(); ++l) {
      if (l == i) continue;
      const Polynomial zmq(CVector{-clusters[l].q, cplx{1.0}});
      for (int rep = 0; rep < clusters[l].multiplicity; ++rep) {
        complement *= zmq;
      }
    }
    num += complement;
  }
  gz_ = RationalFunction(cplx{t} * num, den);
  gz_eff_ = gz_ - RationalFunction::constant(0.5 * t * a0_);
  for (const RationalFunction* g : {&gz_, &gz_eff_}) {
    for (const Polynomial* poly : {&g->num(), &g->den()}) {
      for (const cplx& c : poly->coefficients()) {
        HTMPLL_REQUIRE(finite(c),
                       "impulse-invariant G(z) has a non-finite coefficient: "
                       "the sampled loop is outside the double range");
      }
    }
  }
  poles_ = find_roots(characteristic());
}

double ImpulseInvariantModel::period() const {
  return 2.0 * std::numbers::pi / w0_;
}

cplx ImpulseInvariantModel::lambda_equivalent(cplx s) const {
  // Poisson summation assigns weight 1/2 to the t = 0 sample.
  return gz_eff_(std::exp(s * period()));
}

RationalFunction ImpulseInvariantModel::closed_loop_z() const {
  return gz_eff_.closed_loop_unity_feedback();
}

Polynomial ImpulseInvariantModel::characteristic() const {
  return gz_eff_.den() + gz_eff_.num();
}

bool ImpulseInvariantModel::is_stable(double margin) const {
  HTMPLL_REQUIRE(std::isfinite(margin) && margin >= 0.0,
                 "stability margin must be finite and >= 0");
  for (const cplx& p : poles_) {
    if (!(std::abs(p) < 1.0 - margin)) return false;
  }
  return true;
}

}  // namespace htmpll
