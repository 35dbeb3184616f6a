// Ablation F: PFD hold shape -- the paper's "extension to arbitrary
// PFDs is possible" made concrete.
//
// Two detector families with the SAME charge per cycle:
//  * impulse: narrow charge-pump pulses (Fig. 4's Dirac idealization),
//  * zero-order hold: a sample-and-hold detector holding Icp*e/T.
// The sampler's rank-one aliasing survives; what changes is the shape
// factor H_zoh(s + j m w0) on every V~ component.  Two competing
// effects fall out of the model and are confirmed by the dedicated
// sample-and-hold simulator:
//  * near crossover the hold's -wT/2 lag ERODES the effective margin,
//  * at w0/2 its sinc rolloff attenuates the aliases, so the hard
//    stability boundary RISES (0.276 -> ~0.42).
//
// Usage: ablation_pfd_shape [output.csv]
#include <cmath>
#include <iostream>
#include <numbers>

#include "htmpll/core/stability.hpp"
#include "htmpll/timedomain/sample_hold_sim.hpp"
#include "htmpll/util/table.hpp"

int main(int argc, char** argv) {
  using namespace htmpll;
  const double w0 = 2.0 * std::numbers::pi;
  const cplx j{0.0, 1.0};

  auto model = [&](double ratio, PfdShape shape) {
    SamplingPllOptions opts;
    opts.pfd_shape = shape;
    return SamplingPllModel(make_typical_loop(ratio * w0, w0),
                            HarmonicCoefficients(cplx{1.0}), opts);
  };

  std::cout << "=== Ablation F: impulse charge pump vs sample-and-hold "
               "detector ===\n\n";

  Table t({"w_UG/w0", "PM_eff impulse", "PM_eff ZOH",
           "lam_half impulse", "lam_half ZOH"});
  for (double ratio : {0.05, 0.1, 0.15, 0.2, 0.25}) {
    const SamplingPllModel imp = model(ratio, PfdShape::kImpulse);
    const SamplingPllModel zoh = model(ratio, PfdShape::kZeroOrderHold);
    const EffectiveMargins mi = effective_margins(imp);
    const EffectiveMargins mz = effective_margins(zoh);
    t.add_row({Table::fmt(ratio),
               mi.eff_found ? Table::fmt(mi.eff_phase_margin_deg) : "-",
               mz.eff_found ? Table::fmt(mz.eff_phase_margin_deg) : "-",
               Table::fmt(half_rate_lambda(imp)),
               Table::fmt(half_rate_lambda(zoh))});
  }
  t.print(std::cout);

  auto boundary = [&](PfdShape shape) {
    return bisect_stability_boundary(
               [&](double r) {
                 return half_rate_lambda(model(r, shape)) > -1.0;
               },
               0.05, 0.6, 40)
        .midpoint();
  };
  std::cout << "\nstability boundary: impulse "
            << boundary(PfdShape::kImpulse) << ", ZOH "
            << boundary(PfdShape::kZeroOrderHold) << "\n";

  // Validate the ZOH branch against the sample-and-hold simulator.
  std::cout << "\nZOH model vs sample-and-hold simulator (ratio 0.15):\n";
  Table v({"w/w0", "|H00| model", "|H00| sim", "rel_err"});
  const PllParameters p = make_typical_loop(0.15 * w0, w0);
  const SamplingPllModel zoh = model(0.15, PfdShape::kZeroOrderHold);
  for (double f : {0.03, 0.08, 0.15}) {
    ProbeOptions opts;
    opts.settle_periods = 350.0;
    opts.measure_periods = 20;
    const TransferMeasurement meas =
        measure_baseband_transfer_sample_hold(p, f * w0, opts);
    const cplx pred = zoh.baseband_transfer(j * (f * w0));
    v.add_row(std::vector<double>{
        f, std::abs(pred), std::abs(meas.value),
        std::abs(meas.value - pred) / std::abs(pred)});
  }
  v.print(std::cout);

  if (argc > 1) {
    t.write_csv_file(argv[1]);
    std::cout << "wrote " << argv[1] << "\n";
  }
  return 0;
}
