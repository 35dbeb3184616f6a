// Fig. 7 reproduction: normalized effective unity-gain frequency
// w_UG,eff/w_UG (upper plot) and the phase margin of the effective
// open-loop gain lambda(jw) (lower plot) versus w_UG/w0.  The horizontal
// reference line is the margin classical LTI analysis predicts (it does
// not depend on w_UG/w0 at all).
//
// Expected shape (paper): w_UG,eff/w_UG rises above 1, the effective
// phase margin collapses rapidly -- "for w_UG/w0 = 1/10 this phase
// margin is already ~9% worse than predicted by LTI analysis".  We also
// print the hard stability boundary (where |lambda| no longer crosses 1
// below w0/2 and lambda(j w0/2) <= -1) and the z-domain verdict.
//
// The ratio sweep runs through the design-space map: one batched
// crossover hunt per ratio through the compiled eval plan, all ratios
// concurrent on the pool.
//
// Usage: fig7_stability [output.csv]
#include <iostream>
#include <numbers>
#include <vector>

#include "htmpll/core/stability.hpp"
#include "htmpll/design/design_sweep.hpp"
#include "htmpll/util/table.hpp"

int main(int argc, char** argv) {
  using namespace htmpll;
  const double w0 = 2.0 * std::numbers::pi;

  const double lti_pm = typical_loop_lti_phase_margin_deg();
  std::cout << "=== Fig. 7: effective crossover and phase margin vs "
               "w_UG/w0 ===\n";
  std::cout << "LTI-predicted phase margin (horizontal line): " << lti_pm
            << " deg\n\n";

  const std::vector<double> ratios = {0.01, 0.02, 0.04, 0.06, 0.08,
                                      0.10, 0.125, 0.15, 0.175, 0.20,
                                      0.225, 0.25, 0.27};
  DesignSpec spec;
  spec.w0 = w0;
  spec.target_w_ug = 0.1 * w0;
  spec.target_pm_deg = lti_pm;
  DesignSweepOptions sweep_opts;
  sweep_opts.include_poles = false;  // this figure reads margins only
  const DesignSpaceMap map = design_space_map(spec, ratios, {4.0},
                                              sweep_opts);

  Table t({"w_UG/w0", "wUGeff/wUG", "PM_eff_deg", "PM_lti_deg",
           "PM_loss_%", "lambda(jw0/2)", "z_stable"});
  t.reserve(ratios.size());
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    const DesignPoint& pt = map.at(i, 0);
    const EffectiveMargins& em = pt.design.margins;
    const double loss =
        100.0 * (em.lti_phase_margin_deg - em.eff_phase_margin_deg) /
        em.lti_phase_margin_deg;
    t.add_row({Table::fmt(ratios[i]),
               em.eff_found
                   ? Table::fmt(em.eff_crossover / em.lti_crossover)
                   : "-",
               em.eff_found ? Table::fmt(em.eff_phase_margin_deg) : "-",
               Table::fmt(em.lti_phase_margin_deg),
               em.eff_found ? Table::fmt(loss) : "-",
               Table::fmt(pt.half_rate_lambda),
               pt.design.z_domain_stable ? "yes" : "NO"});
  }
  t.print(std::cout);

  // Locate the stability boundary: bisection on lambda(j w0/2) = -1.
  const StabilityBracket boundary = bisect_stability_boundary(
      [w0](double r) {
        return half_rate_lambda(
                   SamplingPllModel(make_typical_loop(r * w0, w0))) > -1.0;
      },
      0.2, 0.5, 50);
  std::cout << "\nsampled-loop stability boundary (lambda(j w0/2) = -1): "
            << "w_UG/w0 = " << boundary.midpoint()
            << "   [LTI analysis predicts stability for ALL ratios]\n";

  if (argc > 1) {
    t.write_csv_file(argv[1]);
    std::cout << "wrote " << argv[1] << "\n";
  }
  return 0;
}
