#include "htmpll/fracn/fracn_noise.hpp"

#include <cmath>

#include "htmpll/fracn/sigma_delta.hpp"
#include "htmpll/util/check.hpp"
#include "htmpll/util/grid.hpp"

namespace htmpll {

double fracn_output_psd(const SamplingPllModel& model, double w,
                        double t_vco, int order) {
  HTMPLL_REQUIRE(t_vco > 0.0, "VCO period must be positive");
  const double t_sample = model.parameters().period();
  const std::vector<double> s =
      mash_phase_psd({std::abs(w)}, t_vco, t_sample, order);
  const cplx h = model.baseband_transfer(cplx{0.0, w});
  return std::norm(h) * s[0];
}

double fracn_output_rms(const SamplingPllModel& model, double t_vco,
                        double w_lo, double w_hi, int order,
                        std::size_t points) {
  HTMPLL_REQUIRE(points >= 2, "quadrature needs at least two points");
  const std::vector<double> grid = logspace(w_lo, w_hi, points);
  std::vector<double> psd(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) {
    psd[i] = fracn_output_psd(model, grid[i], t_vco, order);
  }
  return trapezoid_rms(grid, psd);
}

}  // namespace htmpll
