#include "htmpll/util/grid.hpp"

#include <cmath>
#include <numbers>
#include <sstream>

#include "htmpll/util/check.hpp"

namespace htmpll {

std::vector<double> linspace(double lo, double hi, std::size_t n) {
  HTMPLL_REQUIRE(n != 0, "linspace: n == 0 (an empty grid) is not allowed");
  if (n == 1) return {lo};
  std::vector<double> out(n);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = lo + step * static_cast<double>(i);
  }
  out.back() = hi;  // avoid accumulated rounding at the endpoint
  return out;
}

std::vector<double> logspace(double lo, double hi, std::size_t n) {
  HTMPLL_REQUIRE(n != 0, "logspace: n == 0 (an empty grid) is not allowed");
  HTMPLL_REQUIRE(lo > 0.0 && hi > lo, "logspace needs 0 < lo < hi");
  if (n == 1) return {lo};
  std::vector<double> out = linspace(std::log10(lo), std::log10(hi), n);
  for (double& x : out) x = std::pow(10.0, x);
  out.front() = lo;  // endpoints bit-exact, not 10^log10(x)
  out.back() = hi;
  return out;
}

std::vector<double> geomspace(double lo, double hi, std::size_t n) {
  HTMPLL_REQUIRE(n != 0, "geomspace: n == 0 (an empty grid) is not allowed");
  HTMPLL_REQUIRE(lo != 0.0 && hi != 0.0 && (lo > 0.0) == (hi > 0.0),
                 "geomspace needs non-zero endpoints of the same sign");
  if (n == 1) return {lo};
  std::vector<double> out(n);
  const double ratio = hi / lo;
  const double inv = 1.0 / static_cast<double>(n - 1);
  for (std::size_t i = 0; i < n; ++i) {
    out[i] = lo * std::pow(ratio, static_cast<double>(i) * inv);
  }
  out.front() = lo;  // both endpoints bit-exact
  out.back() = hi;
  return out;
}

std::vector<double> log_grid_per_decade(double lo, double hi,
                                        std::size_t points_per_decade) {
  HTMPLL_REQUIRE(points_per_decade >= 1, "need at least one point per decade");
  const auto range = [lo, hi] {
    std::ostringstream os;
    os << "[" << lo << ", " << hi << "]";
    return os.str();
  };
  HTMPLL_REQUIRE(std::isfinite(lo) && std::isfinite(hi) && 0.0 < lo && lo < hi,
                 "log_grid_per_decade needs finite 0 < lo < hi, got " +
                     range());
  // Check the count before the cast: converting a double that does not
  // fit std::size_t is undefined behaviour.
  const double count = std::ceil(std::log10(hi / lo) *
                                 static_cast<double>(points_per_decade));
  HTMPLL_REQUIRE(count < 0x1p63,
                 "log_grid_per_decade: too many points over " + range());
  const auto n = static_cast<std::size_t>(count) + 1;
  return logspace(lo, hi, n < 2 ? 2 : n);
}

double trapezoid_rms(const std::vector<double>& w,
                     const std::vector<double>& psd) {
  HTMPLL_REQUIRE(psd.size() == w.size(),
                 "trapezoid_rms: psd and grid differ in length");
  double integral = 0.0;
  for (std::size_t i = 1; i < w.size(); ++i) {
    integral += 0.5 * (psd[i] + psd[i - 1]) * (w[i] - w[i - 1]);
  }
  return std::sqrt(integral / std::numbers::pi);
}

}  // namespace htmpll
