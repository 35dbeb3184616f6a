#include "htmpll/parallel/sweep.hpp"

namespace htmpll {

std::vector<cplx> jw_grid(const std::vector<double>& w) {
  std::vector<cplx> s(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) s[i] = cplx{0.0, w[i]};
  return s;
}

}  // namespace htmpll
