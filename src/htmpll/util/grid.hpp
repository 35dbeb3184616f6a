// Frequency-grid helpers used by sweeps, benches and plots.
#pragma once

#include <cstddef>
#include <vector>

namespace htmpll {

// All grid builders reject n == 0 explicitly (std::invalid_argument),
// return {lo} for n == 1, and make both endpoints bit-exact:
// grid.front() == lo and grid.back() == hi compare equal as doubles.

/// `n` points linearly spaced over [lo, hi] inclusive.
std::vector<double> linspace(double lo, double hi, std::size_t n);

/// `n` points logarithmically spaced over [lo, hi] inclusive.
/// Requires lo > 0, hi > lo.
std::vector<double> logspace(double lo, double hi, std::size_t n);

/// `n` points in geometric progression from lo to hi inclusive (both
/// endpoints bit-exact).  Unlike logspace, the grid may descend
/// (hi < lo) or be negative; endpoints must be non-zero and share a
/// sign.
std::vector<double> geomspace(double lo, double hi, std::size_t n);

/// Points per decade over [lo, hi]; convenience wrapper around logspace
/// that picks the count from the span.  Requires finite 0 < lo < hi and
/// a count below 2^63 (std::invalid_argument naming the range otherwise).
std::vector<double> log_grid_per_decade(double lo, double hi,
                                        std::size_t points_per_decade);

/// RMS phase from a PSD sampled on a grid: sqrt((1/pi) * integral of
/// psd dw), the integral by the trapezoid rule summed from w.front()
/// up.  Requires psd.size() == w.size().
double trapezoid_rms(const std::vector<double>& w,
                     const std::vector<double>& psd);

}  // namespace htmpll
