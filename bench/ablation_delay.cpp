// Ablation D: loop dead time (PFD reset / buffer delay) in the sampled
// loop versus the LTI prediction.
//
// LTI analysis books a delay penalty of w_UG * tau radians of phase
// margin.  In the sampled loop every aliased term A(s + j m w0) also
// rotates by e^{-j m w0 tau}, so the effective-margin shift is a
// different (sometimes even opposite-signed) number, and the stability
// boundary in w_UG/w0 moves.  One more effect LTI sign-off gets wrong.
//
// Usage: ablation_delay [output.csv]
#include <iostream>
#include <numbers>

#include "htmpll/core/stability.hpp"
#include "htmpll/lti/delay.hpp"
#include "htmpll/util/table.hpp"

int main(int argc, char** argv) {
  using namespace htmpll;
  const double w0 = 2.0 * std::numbers::pi;
  const double t_ref = 2.0 * std::numbers::pi / w0;

  std::cout << "=== Ablation D: loop delay vs margins (Pade order 3) "
               "===\n\n";
  Table t({"w_UG/w0", "tau/T", "LTI_PM_deg", "eff_PM_deg", "LTI_loss_deg",
           "eff_loss_deg"});
  for (double ratio : {0.1, 0.2}) {
    const PllParameters p = make_typical_loop(ratio * w0, w0);
    double lti0 = 0.0, eff0 = 0.0;
    for (double tau_frac : {0.0, 0.02, 0.05, 0.1, 0.15}) {
      const SamplingPllModel model(p, HarmonicCoefficients(cplx{1.0}), {},
                                   pade_delay(tau_frac * t_ref, 3));
      const EffectiveMargins m = effective_margins(model);
      if (tau_frac == 0.0) {
        lti0 = m.lti_phase_margin_deg;
        eff0 = m.eff_phase_margin_deg;
      }
      t.add_row({Table::fmt(ratio), Table::fmt(tau_frac),
                 Table::fmt(m.lti_phase_margin_deg),
                 m.eff_found ? Table::fmt(m.eff_phase_margin_deg)
                             : "unstable",
                 Table::fmt(lti0 - m.lti_phase_margin_deg),
                 m.eff_found ? Table::fmt(eff0 - m.eff_phase_margin_deg)
                             : "-"});
    }
  }
  t.print(std::cout);

  // Stability boundary (half-rate criterion) vs delay.
  std::cout << "\nstability boundary w_UG/w0 vs tau/T:\n";
  for (double tau_frac : {0.0, 0.05, 0.1, 0.2}) {
    const StabilityBracket b = bisect_stability_boundary(
        [&](double r) {
          const SamplingPllModel model(
              make_typical_loop(r * w0, w0), HarmonicCoefficients(cplx{1.0}),
              {}, pade_delay(tau_frac * t_ref, 3));
          return half_rate_lambda(model) > -1.0;
        },
        0.05, 0.5, 40);
    std::cout << "  tau/T = " << tau_frac << "  ->  boundary "
              << b.midpoint() << "\n";
  }

  if (argc > 1) {
    t.write_csv_file(argv[1]);
    std::cout << "wrote " << argv[1] << "\n";
  }
  return 0;
}
