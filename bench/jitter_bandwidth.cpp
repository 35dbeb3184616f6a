// Jitter-vs-bandwidth trade-off under the time-varying model and under
// classical LTI analysis.
//
// The textbook rule -- set the loop bandwidth where the reference and
// VCO phase-noise PSDs cross -- comes from LTI transfers.  The sampled
// loop adds passband peaking and harmonic folding that *raise* the true
// output jitter at wide bandwidths, so the LTI-chosen bandwidth can be
// materially worse than the time-varying optimum.
//
// Usage: jitter_bandwidth [output.csv]
#include <iostream>
#include <numbers>
#include <vector>

#include "htmpll/design/design.hpp"
#include "htmpll/parallel/sweep.hpp"
#include "htmpll/timedomain/montecarlo.hpp"
#include "htmpll/util/table.hpp"

int main(int argc, char** argv) {
  using namespace htmpll;
  const double w0 = 2.0 * std::numbers::pi * 10e6;  // 10 MHz reference

  JitterOptimizationSpec spec;
  spec.w0 = w0;
  const double ref_white = 1e-24;
  spec.s_ref = PowerLawPsd{ref_white, 0.0, 0.0};
  // VCO random walk crossing the reference floor at 0.3 w0: a noisy
  // ring-oscillator-like source that rewards wide loops.
  spec.s_vco =
      PowerLawPsd{0.0, 0.0, ref_white * (0.3 * w0) * (0.3 * w0)};

  std::cout << "=== Output jitter vs loop bandwidth (10 MHz reference) "
               "===\n\n";
  Table t({"w_UG/w0", "rms (TV model)", "rms (LTI model)", "TV/LTI"});
  const std::vector<double> ratios = {0.01, 0.02, 0.05, 0.1, 0.15,
                                      0.2, 0.22, 0.24, 0.26};
  // Each bandwidth's jitter integral is independent -- evaluate the
  // whole trade-off curve concurrently.
  struct JitterPair {
    double tv;
    double lti;
  };
  const auto rms = parallel_map<JitterPair>(
      ratios.size(), [&](std::size_t i) {
        return JitterPair{output_jitter_tv(spec, ratios[i] * w0),
                          output_jitter_lti(spec, ratios[i] * w0)};
      });
  t.reserve(ratios.size());
  for (std::size_t i = 0; i < ratios.size(); ++i) {
    t.add_row(std::vector<double>{ratios[i], rms[i].tv, rms[i].lti,
                                  rms[i].tv / rms[i].lti});
  }
  t.print(std::cout);

  const JitterOptimizationResult r = optimize_bandwidth_for_jitter(spec);
  std::cout << "\ntime-varying optimum: w_UG/w0 = " << r.w_ug_tv / w0
            << "  (rms " << r.rms_tv << ")\n";
  std::cout << "LTI-chosen bandwidth: w_UG/w0 = " << r.w_ug_lti / w0
            << "  (true rms there " << r.rms_at_lti_pick << ")\n";
  std::cout << "jitter penalty of trusting LTI analysis: "
            << 100.0 * (r.penalty - 1.0) << " %\n";

  // Behavioral cross-check: a batched Monte Carlo ensemble of transient
  // runs with held charge-pump noise at the TV-optimal bandwidth.  The
  // linear loop response makes the measured theta rms scale linearly in
  // sigma; per-run RNG streams come deterministically from
  // (base_seed, run index), so this block is reproducible bit-for-bit
  // for any thread count.
  {
    const PllParameters p_opt =
        make_typical_loop(r.w_ug_tv, w0);
    const double sigma = 1e-4 * p_opt.icp;
    NoiseEnsembleOptions mc;
    mc.settle_periods = 100.0;
    mc.measure_periods = 400.0;
    const std::size_t n_runs = 6;
    const auto runs1 = run_noise_ensemble(p_opt, sigma, 42, n_runs, mc);
    const auto runs2 =
        run_noise_ensemble(p_opt, 2.0 * sigma, 42, n_runs, mc);
    double rms1 = 0.0, rms2 = 0.0;
    for (std::size_t i = 0; i < n_runs; ++i) {
      rms1 += runs1[i].theta_rms;
      rms2 += runs2[i].theta_rms;
    }
    rms1 /= static_cast<double>(n_runs);
    rms2 /= static_cast<double>(n_runs);
    std::cout << "\nsimulator ensemble at the TV optimum (" << n_runs
              << " runs, held CP noise): mean theta rms " << rms1
              << " s; doubling sigma scales rms by " << rms2 / rms1
              << " (linear-loop check, expect ~2)\n";
  }

  if (argc > 1) {
    t.write_csv_file(argv[1]);
    std::cout << "wrote " << argv[1] << "\n";
  }
  return 0;
}
