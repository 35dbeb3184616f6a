// Fig. 2 companion with simulation marks: reference modulation at w_m
// produces sidebands ("spurs") in the VCO phase at n w0 + w_m whose
// magnitudes are the off-diagonal closed-loop HTM elements H_{n,0}
// (eq. 36).  The time-marching simulator measures the same sidebands
// with a single-bin DFT; HTM prediction and measurement are compared.
//
// Usage: spur_map [output.csv]
#include <cmath>
#include <iostream>
#include <numbers>
#include <vector>

#include "htmpll/core/sampling_pll.hpp"
#include "htmpll/lti/bode.hpp"
#include "htmpll/timedomain/probe.hpp"
#include "htmpll/util/table.hpp"

int main(int argc, char** argv) {
  using namespace htmpll;
  const double w0 = 2.0 * std::numbers::pi;
  const cplx j{0.0, 1.0};
  const double ratio = 0.2;
  const double fm = 0.12;  // w_m / w0

  const PllParameters params = make_typical_loop(ratio * w0, w0);
  const SamplingPllModel model(params);
  const double wm = fm * w0;

  std::cout << "=== Output spur map: reference modulation at w_m = "
            << fm << " w0, loop w_UG/w0 = " << ratio << " ===\n\n";
  std::cout << "output component at n*w0 + w_m <-> |H_n0(j w_m)| "
               "(eq. 36)\n\n";

  Table t({"band_n", "f_out/w0", "HTM_dB", "sim_dB", "rel_err"});
  const std::vector<int> bands = {-2, -1, 0, 1, 2};

  // All HTM predictions share one lambda evaluation at j wm...
  const std::vector<CVector> predicted =
      model.closed_loop_grid(bands, CVector{j * wm});
  // ...and each simulated sideband is an independent transient run,
  // probed concurrently on the thread pool.
  ProbeOptions opts;
  opts.settle_periods = 350.0;
  opts.measure_periods = 24;
  std::vector<BandProbePoint> points;
  points.reserve(bands.size());
  for (int n : bands) points.push_back({n, wm});
  const std::vector<TransferMeasurement> meas =
      measure_band_transfer_many(params, points, opts);

  double worst = 0.0;
  t.reserve(bands.size());
  for (std::size_t i = 0; i < bands.size(); ++i) {
    const cplx pred = predicted[i][0];
    const double rel =
        std::abs(std::abs(meas[i].value) - std::abs(pred)) / std::abs(pred);
    worst = std::max(worst, rel);
    t.add_row(std::vector<double>{
        static_cast<double>(bands[i]), static_cast<double>(bands[i]) + fm,
        magnitude_db(pred), magnitude_db(meas[i].value), rel});
  }
  t.print(std::cout);
  std::cout << "\nworst relative magnitude error: " << worst
            << "\nthe rank-one aliasing structure of the sampling PFD "
               "predicts every sideband, not just the baseband "
               "response.\n";

  if (argc > 1) {
    t.write_csv_file(argv[1]);
    std::cout << "wrote " << argv[1] << "\n";
  }
  return 0;
}
