#include "htmpll/lti/bode.hpp"

#include <cmath>
#include <numbers>

#include "htmpll/util/check.hpp"
#include "htmpll/util/grid.hpp"

namespace htmpll {

double magnitude_db(cplx h) { return 20.0 * std::log10(std::abs(h)); }

double phase_deg(cplx h) {
  return std::arg(h) * 180.0 / std::numbers::pi;
}

std::vector<double> unwrap_phase(const std::vector<double>& radians) {
  std::vector<double> out = radians;
  double offset = 0.0;
  for (std::size_t i = 1; i < out.size(); ++i) {
    double d = radians[i] - radians[i - 1];
    while (d > std::numbers::pi) {
      d -= 2.0 * std::numbers::pi;
      offset -= 2.0 * std::numbers::pi;
    }
    while (d < -std::numbers::pi) {
      d += 2.0 * std::numbers::pi;
      offset += 2.0 * std::numbers::pi;
    }
    out[i] = radians[i] + offset;
  }
  return out;
}

namespace {

/// Log-grid scan density of the crossover search.
constexpr std::size_t kScanPoints = 600;
/// Relative bisection tolerance on w of the crossover search.
constexpr double kTolerance = 1e-10;

/// Phase of h(w) unwrapped continuously from a reference frequency by
/// walking a fine grid from w_ref to w.
double unwrapped_phase_at(const FrequencyResponse& h, double w_ref, double w,
                          std::size_t steps) {
  std::vector<double> ph;
  ph.reserve(steps + 1);
  const std::vector<double> grid =
      (w > w_ref) ? logspace(w_ref, w, steps + 1)
                  : logspace(w, w_ref, steps + 1);
  for (double x : grid) ph.push_back(std::arg(h(x)));
  const std::vector<double> un = unwrap_phase(ph);
  return (w > w_ref) ? un.back() : un.front();
}

}  // namespace

std::optional<CrossoverResult> find_gain_crossover(const FrequencyResponse& h,
                                                   double w_lo, double w_hi) {
  HTMPLL_REQUIRE(w_lo > 0.0 && w_hi > w_lo, "need 0 < w_lo < w_hi");
  const std::vector<double> grid = logspace(w_lo, w_hi, kScanPoints);
  double prev_mag = std::abs(h(grid[0]));
  for (std::size_t i = 1; i < grid.size(); ++i) {
    const double mag = std::abs(h(grid[i]));
    if (prev_mag >= 1.0 && mag < 1.0) {
      // Bisection on log|H| - 0 over [grid[i-1], grid[i]].
      double a = grid[i - 1], b = grid[i];
      for (int it = 0; it < 200; ++it) {
        const double mid = std::sqrt(a * b);
        if (std::abs(h(mid)) >= 1.0) {
          a = mid;
        } else {
          b = mid;
        }
        if ((b - a) <= kTolerance * b) break;
      }
      const double wc = std::sqrt(a * b);
      const double ph = unwrapped_phase_at(h, w_lo, wc, kScanPoints);
      // Normalize the reference so that the phase at w_lo uses its
      // principal value; for open-loop PLL gains (two poles at DC) that
      // starts near -180 deg, as in the paper's Fig. 5.
      return CrossoverResult{wc, 180.0 + ph * 180.0 / std::numbers::pi};
    }
    prev_mag = mag;
  }
  return std::nullopt;
}

std::vector<BodePoint> bode_points_from_samples(
    const std::vector<double>& w_grid, const CVector& h) {
  HTMPLL_REQUIRE(w_grid.size() == h.size(),
                 "bode samples / grid length mismatch");
  const std::size_t points = w_grid.size();
  std::vector<double> raw;
  raw.reserve(points);
  std::vector<BodePoint> out(points);
  for (std::size_t i = 0; i < points; ++i) {
    out[i].w = w_grid[i];
    out[i].mag_db = magnitude_db(h[i]);
    raw.push_back(std::arg(h[i]));
  }
  const std::vector<double> ph = unwrap_phase(raw);
  for (std::size_t i = 0; i < points; ++i) {
    out[i].phase_deg = ph[i] * 180.0 / std::numbers::pi;
  }
  return out;
}

std::vector<BodePoint> bode_sweep(const FrequencyResponse& h, double w_lo,
                                  double w_hi, std::size_t points) {
  const std::vector<double> grid = logspace(w_lo, w_hi, points);
  CVector samples(points);
  for (std::size_t i = 0; i < points; ++i) samples[i] = h(grid[i]);
  return bode_points_from_samples(grid, samples);
}

}  // namespace htmpll
