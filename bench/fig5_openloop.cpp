// Fig. 5 reproduction: the typical open-loop gain characteristic A(jw).
//
// Three poles (two at DC) and one zero; the frequency axis is normalized
// to the unity-gain frequency w_UG, exactly as in the paper.  Expected
// shape: -40 dB/dec below the zero at w_UG/4, -20 dB/dec through
// crossover, -40 dB/dec again beyond the parasitic pole at 4 w_UG; the
// phase starts at -180 deg, peaks near crossover (phase margin ~62 deg)
// and returns toward -180 deg.
//
// Usage: fig5_openloop [output.csv]
#include <iostream>
#include <numbers>

#include "htmpll/lti/bode.hpp"
#include "htmpll/lti/loop_filter.hpp"
#include "htmpll/parallel/sweep.hpp"
#include "htmpll/util/grid.hpp"
#include "htmpll/util/table.hpp"

int main(int argc, char** argv) {
  using namespace htmpll;
  const double w0 = 2.0 * std::numbers::pi;  // T = 1; w_UG/w0 irrelevant here
  const double w_ug = 0.1 * w0;
  const PllParameters params = make_typical_loop(w_ug, w0);
  const RationalFunction a = params.open_loop_gain();

  std::cout << "=== Fig. 5: typical open-loop characteristic A(jw) ===\n";
  std::cout << "A(s) = " << a.to_string() << "\n";
  std::cout << "zero at w_UG/4, parasitic pole at 4*w_UG, |A(j w_UG)| = 1\n\n";

  const FrequencyResponse resp = [&a](double w) {
    return a(cplx{0.0, w});
  };
  // Evaluate the grid on the sweep engine, then unwrap serially.
  const std::vector<double> grid = logspace(1e-2 * w_ug, 1e2 * w_ug, 33);
  const CVector samples =
      SweepRunner().run_jw(grid, [&a](cplx s) { return a(s); });
  const auto sweep = bode_points_from_samples(grid, samples);

  Table t({"w/w_UG", "mag_dB", "phase_deg"});
  t.reserve(sweep.size());
  for (const BodePoint& p : sweep) {
    t.add_row(std::vector<double>{p.w / w_ug, p.mag_db, p.phase_deg});
  }
  t.print(std::cout);

  const auto cross = find_gain_crossover(resp, 1e-3 * w_ug, 1e3 * w_ug);
  std::cout << "\nunity-gain crossover: w/w_UG = "
            << cross->frequency / w_ug
            << ",  classical phase margin = " << cross->phase_margin_deg
            << " deg (analytic " << typical_loop_lti_phase_margin_deg()
            << " deg)\n";

  if (argc > 1) {
    t.write_csv_file(argv[1]);
    std::cout << "wrote " << argv[1] << "\n";
  }
  return 0;
}
