#include "htmpll/core/builders.hpp"

#include <cmath>
#include <numbers>

#include "htmpll/util/check.hpp"

namespace htmpll {

HarmonicCoefficients::HarmonicCoefficients(cplx dc) : j_(0), c_{dc} {}

HarmonicCoefficients::HarmonicCoefficients(CVector coeffs)
    : c_(std::move(coeffs)) {
  HTMPLL_REQUIRE(!c_.empty() && c_.size() % 2 == 1,
                 "harmonic coefficient vector must have odd length 2J+1");
  j_ = static_cast<int>(c_.size() / 2);
}

HarmonicCoefficients HarmonicCoefficients::real_waveform(
    double dc, const CVector& positive) {
  const int j = static_cast<int>(positive.size());
  CVector c(2 * positive.size() + 1);
  c[positive.size()] = dc;
  for (int k = 1; k <= j; ++k) {
    c[positive.size() + k] = positive[k - 1];
    c[positive.size() - k] = std::conj(positive[k - 1]);
  }
  return HarmonicCoefficients(std::move(c));
}

cplx HarmonicCoefficients::operator[](int k) const {
  if (k < -j_ || k > j_) return cplx{0.0};
  return c_[static_cast<std::size_t>(k + j_)];
}

bool HarmonicCoefficients::is_dc_only(double tol) const {
  for (int k = 1; k <= j_; ++k) {
    if (std::abs((*this)[k]) > tol || std::abs((*this)[-k]) > tol) {
      return false;
    }
  }
  return true;
}

Htm lti_htm(const RationalFunction& h, int truncation, double w0, cplx s) {
  return lti_htm([&h](cplx x) { return h(x); }, truncation, w0, s);
}

Htm lti_htm(const std::function<cplx(cplx)>& h, int truncation, double w0,
            cplx s) {
  Htm out(truncation, w0, s);
  for (int m = -truncation; m <= truncation; ++m) {
    const cplx sm = s + cplx{0.0, static_cast<double>(m) * w0};
    out.at(m, m) = h(sm);
  }
  return out;
}

Htm multiplier_htm(const HarmonicCoefficients& p, int truncation, double w0,
                   cplx s) {
  Htm out(truncation, w0, s);
  for (int n = -truncation; n <= truncation; ++n) {
    for (int m = -truncation; m <= truncation; ++m) {
      out.at(n, m) = p[n - m];
    }
  }
  return out;
}

Htm sampling_pfd_htm(int truncation, double w0, cplx s) {
  Htm out(truncation, w0, s);
  const cplx v = w0 / (2.0 * std::numbers::pi);
  for (int n = -truncation; n <= truncation; ++n) {
    for (int m = -truncation; m <= truncation; ++m) {
      out.at(n, m) = v;
    }
  }
  return out;
}

Htm vco_htm(const HarmonicCoefficients& isf, int truncation, double w0,
            cplx s) {
  Htm out(truncation, w0, s);
  for (int n = -truncation; n <= truncation; ++n) {
    const cplx sn = s + cplx{0.0, static_cast<double>(n) * w0};
    HTMPLL_REQUIRE(std::abs(sn) > 0.0,
                   "vco_htm evaluated on an integrator pole s = -j n w0");
    const cplx integ = 1.0 / sn;
    for (int m = -truncation; m <= truncation; ++m) {
      out.at(n, m) = isf[n - m] * integ;
    }
  }
  return out;
}

}  // namespace htmpll
