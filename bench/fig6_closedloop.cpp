// Fig. 6 reproduction: closed-loop baseband transfer H_{0,0}(jw) for
// w_UG/w0 in {1/100, 1/10, 1/5} -- solid curves from the HTM closed
// form (eq. 38), marks from the behavioral time-marching simulator.
//
// Expected shape (paper): as w_UG/w0 grows, the effective bandwidth
// shifts right and the passband-edge peaking worsens; the HTM curve and
// the simulation marks agree within ~2%.  The classical LTI column is
// printed for contrast -- it misses both effects.
//
// Usage: fig6_closedloop [output.csv]
#include <cmath>
#include <iostream>
#include <numbers>

#include "htmpll/core/sampling_pll.hpp"
#include "htmpll/lti/bode.hpp"
#include "htmpll/parallel/sweep.hpp"
#include "htmpll/timedomain/probe.hpp"
#include "htmpll/util/grid.hpp"
#include "htmpll/util/table.hpp"

int main(int argc, char** argv) {
  using namespace htmpll;
  const double w0 = 2.0 * std::numbers::pi;  // T = 1
  const cplx j{0.0, 1.0};

  std::cout << "=== Fig. 6: |H_00(jw)| for w_UG/w0 = 1/100, 1/10, 1/5 ===\n";
  std::cout << "HTM = eq. 38 (exact lambda), LTI = classical A/(1+A),\n"
            << "sim = time-marching probe at selected frequencies\n\n";

  Table t({"w_UG/w0", "w/w_UG", "HTM_dB", "LTI_dB", "sim_dB", "rel_err"});
  double worst_err = 0.0;

  for (double ratio : {0.01, 0.1, 0.2}) {
    const PllParameters params = make_typical_loop(ratio * w0, w0);
    const SamplingPllModel model(params);

    // Frequency grid in units of w_UG (the paper's x-axis), capped at
    // w0/2 where the sampled description lives.
    const std::vector<double> grid =
        logspace(0.05, std::min(50.0, 0.5 / ratio * 0.98), 13);
    // Simulation marks at a subset (time-marching is the slow part).
    const std::vector<double> marks =
        (ratio >= 0.1) ? std::vector<double>{0.3, 1.0, 2.0}
                       : std::vector<double>{0.3, 1.0};

    // Both solid curves over the whole grid in one batched call each.
    std::vector<double> w_abs(grid.size());
    for (std::size_t i = 0; i < grid.size(); ++i) {
      w_abs[i] = grid[i] * ratio * w0;
    }
    const CVector s_grid = jw_grid(w_abs);
    const CVector htm = model.baseband_transfer_grid(s_grid);
    const CVector lti = model.lti_baseband_transfer_grid(s_grid);
    for (std::size_t i = 0; i < grid.size(); ++i) {
      t.add_row({Table::fmt(ratio), Table::fmt(grid[i]),
                 Table::fmt(magnitude_db(htm[i])),
                 Table::fmt(magnitude_db(lti[i])), "-", "-"});
    }

    // Simulation marks: each one is a full transient run, so probe them
    // all at once on the thread pool.
    ProbeOptions opts;
    opts.settle_periods = 400.0;
    opts.measure_periods = 24;
    std::vector<double> w_marks(marks.size());
    for (std::size_t i = 0; i < marks.size(); ++i) {
      w_marks[i] = marks[i] * ratio * w0;
    }
    const std::vector<TransferMeasurement> meas =
        measure_baseband_transfer_many(params, w_marks, opts);
    for (std::size_t i = 0; i < marks.size(); ++i) {
      const cplx h = model.baseband_transfer(j * w_marks[i]);
      const double rel = std::abs(meas[i].value - h) / std::abs(h);
      worst_err = std::max(worst_err, rel);
      t.add_row({Table::fmt(ratio), Table::fmt(marks[i]),
                 Table::fmt(magnitude_db(h)),
                 Table::fmt(
                     magnitude_db(model.lti_baseband_transfer(j * w_marks[i]))),
                 Table::fmt(magnitude_db(meas[i].value)), Table::fmt(rel)});
    }
  }
  t.print(std::cout);
  std::cout << "\nworst HTM-vs-simulation relative error: " << worst_err
            << "  (paper: 'both are within 2%')\n";

  if (argc > 1) {
    t.write_csv_file(argv[1]);
    std::cout << "wrote " << argv[1] << "\n";
  }
  return 0;
}
