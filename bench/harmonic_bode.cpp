// Harmonic Bode plot: |H_{n,0}(jw)| for output bands n = 0..3 as a
// function of the baseband input frequency -- Fig. 2's band-transfer
// picture swept over frequency.  Every column is one HTM row element
// V~_n/(1 + lambda) of the rank-one closed loop (eq. 36): the baseband
// column is the paper's Fig. 6 curve, the n >= 1 columns are the spur /
// sideband transfers that only the time-varying description produces.
//
// Usage: harmonic_bode [output.csv]
#include <iostream>
#include <numbers>
#include <vector>

#include "htmpll/core/sampling_pll.hpp"
#include "htmpll/lti/bode.hpp"
#include "htmpll/parallel/sweep.hpp"
#include "htmpll/util/grid.hpp"
#include "htmpll/util/table.hpp"

int main(int argc, char** argv) {
  using namespace htmpll;
  const double w0 = 2.0 * std::numbers::pi;
  const double ratio = 0.2;
  const SamplingPllModel model(make_typical_loop(ratio * w0, w0));

  std::cout << "=== Harmonic Bode plot |H_n0(jw)| dB, w_UG/w0 = " << ratio
            << " ===\n\n";
  Table t({"w/w0", "n=0 (Fig.6)", "n=1", "n=2", "n=3", "n=-1"});
  // One batched call: all five band columns share a single lambda
  // evaluation and shifted-gain table per grid point.
  const std::vector<int> bands = {0, 1, 2, 3, -1};
  const std::vector<double> w_grid = logspace(1e-3 * w0, 0.49 * w0, 21);
  const std::vector<CVector> h = model.closed_loop_grid(bands,
                                                        jw_grid(w_grid));
  t.reserve(w_grid.size());
  for (std::size_t i = 0; i < w_grid.size(); ++i) {
    t.add_row(std::vector<double>{
        w_grid[i] / w0, magnitude_db(h[0][i]), magnitude_db(h[1][i]),
        magnitude_db(h[2][i]), magnitude_db(h[3][i]),
        magnitude_db(h[4][i])});
  }
  t.print(std::cout);
  std::cout << "\nreading: a reference tone at w/w0 leaves the loop at "
               "n w0 + w with these gains.  The n = -1 image rises as w "
               "approaches w0/2 (it lands at w0 - w, approaching the "
               "baseband response) -- the crosstalk that limits "
               "measurement accuracy near the Nyquist edge.\n";

  if (argc > 1) {
    t.write_csv_file(argv[1]);
    std::cout << "wrote " << argv[1] << "\n";
  }
  return 0;
}
