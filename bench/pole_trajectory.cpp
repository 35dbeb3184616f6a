// Companion to Fig. 7: closed-loop pole trajectories of the sampled
// loop versus w_UG/w0.
//
// Solves 1 + lambda(s) = 0 by Newton (seeded from the impulse-invariant
// z-characteristic), batched through the design-space sweep engine: all
// ratios evaluate concurrently and each model's Newton iterations
// advance in lockstep through its compiled eval plan.  The dominant
// complex pair marches toward the imaginary axis near Im(s) = w0/2 as
// the ratio grows -- the pole-domain picture behind the phase-margin
// collapse -- and crosses into the right half plane at the boundary
// (w_UG/w0 ~ 0.276), where the loop breaks into a half-reference-rate
// oscillation.
//
// Usage: pole_trajectory [output.csv]
#include <iostream>
#include <numbers>
#include <vector>

#include "htmpll/core/pole_search.hpp"
#include "htmpll/core/symbolic.hpp"
#include "htmpll/design/design_sweep.hpp"
#include "htmpll/util/table.hpp"

int main(int argc, char** argv) {
  using namespace htmpll;
  const double w0 = 2.0 * std::numbers::pi;

  std::cout << "=== Closed-loop poles of 1 + lambda(s) = 0 vs w_UG/w0 "
               "===\n";
  std::cout << "(s in units of w0; the symbolic lambda closed form is "
               "printed once below)\n\n";
  {
    const SamplingPllModel model(make_typical_loop(0.1 * w0, w0));
    const LambdaExpression lam(model.open_loop_gain(), w0);
    std::cout << "lambda(s) = " << lam.to_string() << "\n\n";
  }

  const std::vector<double> ratios = {0.05, 0.1, 0.15, 0.2,
                                      0.25, 0.27, 0.28, 0.3};
  // One design-space row at the typical loop's gamma = 4: every ratio's
  // pole hunt runs concurrently, batched through the eval plan.
  DesignSpec spec;
  spec.w0 = w0;
  spec.target_w_ug = 0.1 * w0;
  spec.target_pm_deg = typical_loop_lti_phase_margin_deg();
  const DesignSpaceMap map = design_space_map(spec, ratios, {4.0});

  Table t({"w_UG/w0", "Re(s)/w0", "Im(s)/w0", "zeta", "|1+lambda|"});
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    for (const ClosedLoopPole& p : map.at(i, 0).poles) {
      // Report the fundamental-strip poles with non-negative Im.
      if (p.s.imag() < -1e-9) continue;
      t.add_row(std::vector<double>{ratios[i], p.s.real() / w0,
                                    p.s.imag() / w0, p.damping,
                                    p.residual});
    }
  }
  t.print(std::cout);
  std::cout << "\nnote the dominant pair's Im(s) saturating at w0/2 = 0.5 "
               "and Re(s) crossing zero past the boundary: the loop fails "
               "by oscillating at half the reference rate.\n";

  if (argc > 1) {
    t.write_csv_file(argv[1]);
    std::cout << "wrote " << argv[1] << "\n";
  }
  return 0;
}
