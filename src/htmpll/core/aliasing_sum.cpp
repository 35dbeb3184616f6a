#include "htmpll/core/aliasing_sum.hpp"

#include <cmath>
#include <numbers>

#include "htmpll/linalg/batch_kernels_detail.hpp"
#include "htmpll/obs/diag.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll {

// The coth/csch^2 building blocks are the batch kernels' own
// (linalg/batch_kernels_detail.hpp): every public entry point here is
// assembled from them, so values derived from one exp(-2z) -- here or in
// a kernel -- are bit-identical to values computed standalone.
using detail::coth_from_e;
using detail::coth_series;
using detail::csch2_from_e;
using detail::csch2_series;

cplx stable_coth(cplx z) {
  if (z.real() < 0.0) return -stable_coth(-z);
  if (std::abs(z) < 1e-3) return coth_series(z);
  return coth_from_e(std::exp(-2.0 * z));
}

cplx stable_csch2(cplx z) {
  if (z.real() < 0.0) z = -z;  // csch^2 is even
  if (std::abs(z) < 1e-3) return csch2_series(z);
  return csch2_from_e(std::exp(-2.0 * z));
}

CothCsch2 stable_coth_csch2(cplx z) {
  const bool flip = z.real() < 0.0;  // coth is odd, csch^2 is even
  const cplx zp = flip ? -z : z;
  if (std::abs(zp) < 1e-3) {
    const cplx ct = coth_series(zp);
    return {flip ? -ct : ct, csch2_series(zp)};
  }
  const cplx e = std::exp(-2.0 * zp);
  const cplx ct = coth_from_e(e);
  return {flip ? -ct : ct, csch2_from_e(e)};
}

cplx harmonic_pole_sum(cplx x, double w0, int k) {
  HTMPLL_REQUIRE(w0 > 0.0, "harmonic_pole_sum needs w0 > 0");
  HTMPLL_REQUIRE(k >= 1 && k <= 4,
                 "harmonic_pole_sum supports pole multiplicities 1..4");
  const double c = std::numbers::pi / w0;
  const cplx u = c * x;
  switch (k) {
    case 1:
      return c * stable_coth(u);
    case 2:
      return c * c * stable_csch2(u);
    case 3: {
      const CothCsch2 h = stable_coth_csch2(u);
      return c * c * c * h.csch2 * h.coth;
    }
    default: {
      // S4 = (c^4/3) (2 csch^2 u coth^2 u + csch^4 u)
      const CothCsch2 h = stable_coth_csch2(u);
      const cplx cs2 = h.csch2;
      const cplx ct = h.coth;
      return (c * c * c * c / 3.0) * (2.0 * cs2 * ct * ct + cs2 * cs2);
    }
  }
}

void harmonic_pole_sums(cplx x, double w0, int kmax, cplx* out) {
  HTMPLL_REQUIRE(w0 > 0.0, "harmonic_pole_sums needs w0 > 0");
  HTMPLL_REQUIRE(kmax >= 1 && kmax <= 4,
                 "harmonic_pole_sums supports pole multiplicities 1..4");
  const double c = std::numbers::pi / w0;
  const cplx u = c * x;
  if (kmax == 1) {
    out[0] = c * stable_coth(u);
    return;
  }
  const CothCsch2 h = stable_coth_csch2(u);
  const cplx ct = h.coth;
  const cplx cs2 = h.csch2;
  out[0] = c * ct;
  out[1] = c * c * cs2;
  if (kmax >= 3) out[2] = c * c * c * cs2 * ct;
  if (kmax >= 4) {
    out[3] = (c * c * c * c / 3.0) * (2.0 * cs2 * ct * ct + cs2 * cs2);
  }
}

AliasingSum::AliasingSum(RationalFunction a, double w0)
    : a_(std::move(a)), w0_(w0), pf_(a_) {
  HTMPLL_REQUIRE(w0_ > 0.0, "AliasingSum needs w0 > 0");
  HTMPLL_REQUIRE(a_.is_strictly_proper(),
                 "aliasing sum diverges for non-strictly-proper A(s)");
  // Laurent expansion at infinity: A = c_d/s^d + c_{d+1}/s^{d+1} + ...
  // With a monic denominator, c_d is the numerator's leading coefficient
  // and c_{d+1} = a_{n-1} - a_n b_{m-1}.
  rel_degree_ = a_.relative_degree();
  const Polynomial& num = a_.num();
  const Polynomial& den = a_.den();
  laurent_d_ = num.leading();
  const cplx a_nm1 =
      num.degree() >= 1 ? num.coefficient(num.degree() - 1) : cplx{0.0};
  const cplx b_mm1 =
      den.degree() >= 1 ? den.coefficient(den.degree() - 1) : cplx{0.0};
  laurent_d1_ = a_nm1 - laurent_d_ * b_mm1;
}

cplx AliasingSum::truncated(cplx s, int max_harmonic) const {
  HTMPLL_REQUIRE(max_harmonic >= 0, "negative truncation");
  cplx acc = a_(s);
  for (int m = 1; m <= max_harmonic; ++m) {
    const cplx jm{0.0, static_cast<double>(m) * w0_};
    acc += a_(s + jm) + a_(s - jm);
  }
  return acc;
}

cplx AliasingSum::adaptive(cplx s, const AliasingSumOptions& opts) const {
  // Orders whose tails we can sum in closed form (harmonic_pole_sum
  // supports k <= 4).
  const int k1 = rel_degree_;
  const int k2 = rel_degree_ + 1;
  const bool corr1 = k1 >= 1 && k1 <= 4 && laurent_d_ != cplx{0.0};
  const bool corr2 = k2 >= 1 && k2 <= 4 && laurent_d1_ != cplx{0.0};

  auto pole_pow = [](cplx x, int k) {
    cplx p{1.0};
    for (int i = 0; i < k; ++i) p *= x;
    return 1.0 / p;
  };

  cplx acc = a_(s);
  cplx partial1 = corr1 ? pole_pow(s, k1) : cplx{0.0};
  cplx partial2 = corr2 ? pole_pow(s, k2) : cplx{0.0};
  int quiet = 0;
  bool settled = false;
  for (int m = 1; m <= opts.max_pairs; ++m) {
    const cplx jm{0.0, static_cast<double>(m) * w0_};
    const cplx pair = a_(s + jm) + a_(s - jm);
    acc += pair;
    // Residual after removing the analytically-summed leading orders
    // decays like 1/m^(d+2); use it for the stopping rule.
    cplx residual = pair;
    if (corr1) {
      const cplx p1 = pole_pow(s + jm, k1) + pole_pow(s - jm, k1);
      partial1 += p1;
      residual -= laurent_d_ * p1;
    }
    if (corr2) {
      const cplx p2 = pole_pow(s + jm, k2) + pole_pow(s - jm, k2);
      partial2 += p2;
      residual -= laurent_d1_ * p2;
    }
    if (std::abs(residual) <=
        opts.rel_tol * std::max(1e-300, std::abs(acc))) {
      if (++quiet >= opts.quiet_pairs) {
        settled = true;
        break;
      }
    } else {
      quiet = 0;
    }
  }
  if (!settled) {
    // Ran out of pairs before the stopping rule fired: the truncation
    // error at this point is not bounded by rel_tol.
    obs::diag_event(obs::DiagReason::kHtmTruncationSaturated,
                    static_cast<double>(opts.max_pairs));
  }
  // Tail corrections: orders k1 and k2 = k1 + 1 share one exp(-2z) when
  // both are active (bit-identical to two standalone calls).
  cplx tail1{0.0};
  cplx tail2{0.0};
  if (corr1 && corr2) {
    cplx sums[4];
    harmonic_pole_sums(s, w0_, k2, sums);
    tail1 = sums[k1 - 1];
    tail2 = sums[k2 - 1];
  } else if (corr1) {
    tail1 = harmonic_pole_sum(s, w0_, k1);
  } else if (corr2) {
    tail2 = harmonic_pole_sum(s, w0_, k2);
  }
  if (corr1) acc += laurent_d_ * (tail1 - partial1);
  if (corr2) acc += laurent_d1_ * (tail2 - partial2);
  return acc;
}

cplx AliasingSum::exact(cplx s) const {
  // lambda(s) = sum_i sum_k r_ik S_k(s - p_i); the direct part is zero
  // because A is strictly proper.  One harmonic_pole_sums call per pole
  // shares the exponential across that pole's multiplicity orders.
  cplx acc{0.0};
  cplx sums[4];
  for (const PoleTerm& term : pf_.terms()) {
    const cplx x = s - term.pole;
    harmonic_pole_sums(x, w0_, static_cast<int>(term.residues.size()),
                       sums);
    for (std::size_t j = 0; j < term.residues.size(); ++j) {
      acc += term.residues[j] * sums[j];
    }
  }
  return acc;
}

}  // namespace htmpll
