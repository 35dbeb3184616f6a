// Ablation C: the z-domain baseline (Hein-Scott / Gardner style,
// impulse-invariant) against the HTM model and classical LTI analysis.
//
// Three questions:
//  1. Do the z-domain model and the effective-gain lambda(s) agree?
//     (They must: Poisson summation makes them the same object on
//     z = e^{sT}.)
//  2. Where does each method place the stability boundary in w_UG/w0?
//     LTI says "always stable"; z-domain poles and the lambda half-rate
//     criterion must agree with each other.
//  3. What does the z-domain model miss?  The continuous-time baseband
//     response between sampling instants (Fig. 6) and all inter-band
//     transfers -- the HTM model's contribution.
//
// Usage: ablation_zdomain [output.csv]
#include <cmath>
#include <iostream>
#include <numbers>

#include "htmpll/core/stability.hpp"
#include "htmpll/util/table.hpp"
#include "htmpll/ztrans/jury.hpp"
#include "htmpll/ztrans/zdomain.hpp"

int main(int argc, char** argv) {
  using namespace htmpll;
  const double w0 = 2.0 * std::numbers::pi;
  const cplx j{0.0, 1.0};

  std::cout << "=== Ablation C: z-domain baseline vs HTM model ===\n\n";
  std::cout << "1) lambda(s) == G_z(e^{sT}) (Poisson identity), "
               "w_UG/w0 = 0.2:\n";
  {
    const SamplingPllModel model(make_typical_loop(0.2 * w0, w0));
    const ImpulseInvariantModel zm(model.open_loop_gain(), w0);
    Table t({"w/w0", "lambda_exact", "z_model", "rel_err"});
    for (double f : {0.05, 0.15, 0.3, 0.45}) {
      const cplx s = j * (f * w0);
      const cplx lam = model.lambda(s);
      const cplx zlam = zm.lambda_equivalent(s);
      t.add_row({Table::fmt(f), Table::fmt(std::abs(lam)),
                 Table::fmt(std::abs(zlam)),
                 Table::fmt(std::abs(lam - zlam) / std::abs(lam))});
    }
    t.print(std::cout);
  }

  std::cout << "\n2) stability verdicts vs w_UG/w0 (LTI: stable at every "
               "ratio):\n";
  Table t2({"w_UG/w0", "z_poles_stable", "jury_stable", "lambda_half",
            "half_rate_stable", "max|z_pole|"});
  for (double ratio : {0.1, 0.2, 0.25, 0.27, 0.28, 0.29, 0.3, 0.35, 0.5}) {
    const SamplingPllModel model(make_typical_loop(ratio * w0, w0));
    const ImpulseInvariantModel zm(model.open_loop_gain(), w0);
    double maxp = 0.0;
    for (const cplx& p : zm.closed_loop_poles()) {
      maxp = std::max(maxp, std::abs(p));
    }
    t2.add_row({Table::fmt(ratio), zm.is_stable() ? "yes" : "NO",
                jury_stable(zm.characteristic()) ? "yes" : "NO",
                Table::fmt(half_rate_lambda(model)),
                predicts_half_rate_instability(model) ? "NO" : "yes",
                Table::fmt(maxp)});
  }
  t2.print(std::cout);

  // Boundary via z-domain pole bisection.
  const StabilityBracket boundary = bisect_stability_boundary(
      [w0](double r) {
        return ImpulseInvariantModel(
                   make_typical_loop(r * w0, w0).open_loop_gain(), w0)
            .is_stable();
      },
      0.2, 0.5, 40);
  std::cout << "\nz-domain stability boundary: w_UG/w0 = "
            << boundary.midpoint() << "\n";

  std::cout << "\n3) what the z-model cannot express: continuous-time "
               "baseband response and inter-band transfers.\n"
               "   (See fig6_closedloop and fig2_bandmap -- those numbers "
               "come from the HTM description only.)\n";

  if (argc > 1) {
    t2.write_csv_file(argv[1]);
    std::cout << "wrote " << argv[1] << "\n";
  }
  return 0;
}
