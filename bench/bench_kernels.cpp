// Eval-plan / batch-kernel benchmark: the compiled evaluation plan vs
// the point-wise reference calls, plus the raw SoA kernels it is built
// from.
//
//   1. headline: exact-method lambda_grid over a 2000-point log grid,
//      compiled plan vs the point-wise lambda(s, kExact, 0) swept on the
//      same pool (SweepRunner).
//      Contract: speedup >= 1.5x and <= 1e-12 max relative error.
//   2. micro-kernels over the same grid size: batch_cexp vs per-point
//      std::exp, batch_horner vs Polynomial::operator(), batch_rational
//      vs RationalFunction::operator(), accumulate_pole_sums vs the
//      scalar harmonic_pole_sums closed form.
//
// Writes a machine-readable report (default BENCH_kernels.json).
//
// Usage: bench_kernels [output.json] [--check]
//   --check: additionally exit non-zero if the plan speedup drops below
//            1.5x the point-wise sweep.
#include <algorithm>
#include <cmath>
#include <complex>
#include <iostream>
#include <limits>
#include <numbers>
#include <string>
#include <vector>

#include "bench_common.hpp"
#include "htmpll/core/aliasing_sum.hpp"
#include "htmpll/core/sampling_pll.hpp"
#include "htmpll/linalg/batch_kernels.hpp"
#include "htmpll/linalg/simd.hpp"
#include "htmpll/lti/polynomial.hpp"
#include "htmpll/lti/rational.hpp"
#include "htmpll/obs/diag.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/obs/trace.hpp"
#include "htmpll/parallel/sweep.hpp"
#include "htmpll/util/grid.hpp"
#include "htmpll/util/table.hpp"

namespace {

using namespace htmpll;
using bench::Json;
using bench::time_best_of;

double max_rel_err(const CVector& got, const CVector& want) {
  double worst = got.size() == want.size()
                     ? 0.0
                     : std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < got.size() && i < want.size(); ++i) {
    const double scale = std::max(1e-300, std::abs(want[i]));
    worst = std::max(worst, std::abs(got[i] - want[i]) / scale);
  }
  return worst;
}

}  // namespace

int main(int argc, char** argv) {
  std::string out_path = "BENCH_kernels.json";
  bool check = false;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) == "--check") {
      check = true;
    } else {
      out_path = argv[i];
    }
  }

  const double w0 = 2.0 * std::numbers::pi;
  const PllParameters params = make_typical_loop(0.1 * w0, w0);
  const SamplingPllModel model(params);

  const std::size_t n = 2000;
  const std::vector<double> w_grid = logspace(1e-3 * w0, 0.49 * w0, n);
  const CVector s_grid = jw_grid(w_grid);
  const int reps = 5;

  std::cout << "=== Eval-plan / batch-kernel benchmark: " << n
            << " grid points ===\n\n";

  const bool obs_was_enabled = obs::enabled();
  obs::enable();
  obs::reset_counters();
  obs::clear_trace();
  std::vector<std::pair<std::string, double>> phases;

  // --- 1. headline: exact lambda_grid, plan vs point-wise sweep ---------
  CVector lam_scalar;
  double t_scalar = 0.0;
  bench::run_phase(phases, "lambda_grid_scalar", [&] {
    t_scalar = time_best_of(reps, [&] {
      lam_scalar = SweepRunner().run(s_grid, [&model](cplx s) {
        return model.lambda(s, LambdaMethod::kExact, 0);
      });
    });
  });
  CVector lam_plan;
  double t_plan = 0.0;
  bench::run_phase(phases, "lambda_grid_plan", [&] {
    t_plan = time_best_of(reps, [&] {
      lam_plan = model.lambda_grid(s_grid, LambdaMethod::kExact, 0);
    });
  });
  const double speedup = t_scalar / t_plan;
  const double plan_err = max_rel_err(lam_plan, lam_scalar);

  // --- 2. micro-kernels over the same grid size -------------------------
  std::vector<double> s_re(n), s_im(n), out_re(n), out_im(n), tmp_re(n),
      tmp_im(n);
  split_planes(s_grid.data(), n, s_re.data(), s_im.data());
  CVector scalar_out(n);

  // exp(-sT) plane: the shared exponential every plan block starts with.
  const double t_period = 2.0 * std::numbers::pi / w0;
  std::vector<double> arg_re(n), arg_im(n), e_re(n), e_im(n);
  for (std::size_t i = 0; i < n; ++i) {
    arg_re[i] = -t_period * s_re[i];
    arg_im[i] = -t_period * s_im[i];
  }
  double t_cexp_batch = 0.0;
  bench::run_phase(phases, "cexp", [&] {
    t_cexp_batch = time_best_of(reps, [&] {
      batch_cexp(arg_re.data(), arg_im.data(), n, e_re.data(), e_im.data());
    });
  });
  const double t_cexp_scalar = time_best_of(reps, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      scalar_out[i] = std::exp(cplx{arg_re[i], arg_im[i]});
    }
  });

  // degree-6 polynomial, then a 4/5 rational built from it.
  CVector num_c = {cplx{1.0, 0.2},  cplx{-0.7, 0.1}, cplx{0.3, -0.4},
                   cplx{0.05, 0.6}, cplx{-0.2, 0.1}, cplx{0.4, -0.3},
                   cplx{0.08, 0.02}};
  CVector den_c = {cplx{2.0, -0.1}, cplx{0.9, 0.3}, cplx{-0.2, 0.5},
                   cplx{0.6, -0.2}, cplx{0.1, 0.1}, cplx{0.3, 0.04}};
  const Polynomial num_poly(num_c);
  const Polynomial den_poly(den_c);
  const RationalFunction rational(num_poly, den_poly);

  double t_horner_batch = 0.0;
  bench::run_phase(phases, "horner", [&] {
    t_horner_batch = time_best_of(reps, [&] {
      batch_horner(num_c.data(), num_c.size(), s_re.data(), s_im.data(), n,
                   out_re.data(), out_im.data());
    });
  });
  const double t_horner_scalar = time_best_of(reps, [&] {
    for (std::size_t i = 0; i < n; ++i) scalar_out[i] = num_poly(s_grid[i]);
  });

  double t_rational_batch = 0.0;
  bench::run_phase(phases, "rational", [&] {
    t_rational_batch = time_best_of(reps, [&] {
      batch_rational(num_c.data(), num_c.size(), den_c.data(), den_c.size(),
                     s_re.data(), s_im.data(), n, out_re.data(),
                     out_im.data(), tmp_re.data(), tmp_im.data());
    });
  });
  const double t_rational_scalar = time_best_of(reps, [&] {
    for (std::size_t i = 0; i < n; ++i) scalar_out[i] = rational(s_grid[i]);
  });

  // one multiplicity-4 pole term streamed over the grid vs the scalar
  // coth/csch^2 closed form per point.
  const double c = std::numbers::pi / w0;
  PoleSumTerm term;
  term.pole = cplx{-0.3 * w0, 0.2 * w0};
  term.exp_pole_t = std::exp(term.pole * t_period);
  term.kmax = 4;
  term.residues[0] = cplx{0.4, -0.2};
  term.residues[1] = cplx{-1.1, 0.6};
  term.residues[2] = cplx{0.2, 0.9};
  term.residues[3] = cplx{-0.05, 0.3};
  std::vector<double> acc_re(n), acc_im(n);
  double t_polesum_batch = 0.0;
  bench::run_phase(phases, "pole_sums", [&] {
    t_polesum_batch = time_best_of(reps, [&] {
      std::fill(acc_re.begin(), acc_re.end(), 0.0);
      std::fill(acc_im.begin(), acc_im.end(), 0.0);
      accumulate_pole_sums(term, c, s_re.data(), s_im.data(), e_re.data(),
                           e_im.data(), n, acc_re.data(), acc_im.data());
    });
  });
  const double t_polesum_scalar = time_best_of(reps, [&] {
    for (std::size_t i = 0; i < n; ++i) {
      cplx sums[4];
      harmonic_pole_sums(s_grid[i] - term.pole, w0, 4, sums);
      cplx acc{0.0};
      for (int j = 0; j < 4; ++j) acc += term.residues[j] * sums[j];
      scalar_out[i] = acc;
    }
  });

  // --- 3. SIMD dispatch: vector vs forced-scalar batch_cexp -------------
  // The cexp-dominated grid is where the AVX2 kernels earn their keep;
  // time the dispatched path against the same public entry point pinned
  // to the scalar ISA (exactly the pre-SIMD kernel).
  const simd::Isa resolved_isa = simd::active_isa();
  const bool simd_active = resolved_isa == simd::Isa::kAvx2Fma;
  double t_cexp_simd = 0.0;
  double t_cexp_forced_scalar = 0.0;
  bench::run_phase(phases, "cexp_simd_dispatch", [&] {
    t_cexp_simd = time_best_of(reps, [&] {
      batch_cexp(arg_re.data(), arg_im.data(), n, e_re.data(), e_im.data());
    });
  });
  {
    simd::set_isa(simd::Isa::kScalar);
    bench::run_phase(phases, "cexp_forced_scalar", [&] {
      t_cexp_forced_scalar = time_best_of(reps, [&] {
        batch_cexp(arg_re.data(), arg_im.data(), n, e_re.data(),
                   e_im.data());
      });
    });
    simd::set_isa(resolved_isa);
  }
  const double simd_speedup = t_cexp_forced_scalar / t_cexp_simd;

  // --- console summary --------------------------------------------------
  Table table({"kernel", "batch_s", "scalar_s", "speedup"});
  auto row = [&table](const std::string& name, double batch, double scalar) {
    table.add_row({name, std::to_string(batch), std::to_string(scalar),
                   std::to_string(scalar / batch)});
  };
  row("lambda_grid exact (plan)", t_plan, t_scalar);
  row("cexp", t_cexp_batch, t_cexp_scalar);
  row("horner deg-6", t_horner_batch, t_horner_scalar);
  row("rational 6/5", t_rational_batch, t_rational_scalar);
  row("pole_sums kmax=4", t_polesum_batch, t_polesum_scalar);
  row("cexp simd vs forced-scalar", t_cexp_simd, t_cexp_forced_scalar);
  table.print(std::cout);
  std::cout << "\nplan max relative error vs point-wise sweep: "
            << plan_err << "\n";
  const bool within_tol = plan_err <= 1e-12;
  // Feed the plan-vs-scalar spot check into the manifest health gauges.
  obs::diag_gauge_max(obs::HealthGauge::kMaxPlanSpotCheckError, plan_err);
  std::cout << "plan speedup " << speedup << "x (target >= 1.5), within "
            << "1e-12: " << (within_tol ? "yes" : "NO") << "\n";
  std::cout << "simd dispatch: " << simd::isa_name(resolved_isa) << " ("
            << simd::lane_width(resolved_isa) << " lanes), cexp speedup "
            << simd_speedup << "x"
            << (simd_active ? " (target >= 1.8)" : " (scalar fallback)")
            << "\n";

  // --- report -----------------------------------------------------------
  Json report = Json::object();
  report.set("benchmark", Json::string("bench_kernels"));
  report.set("grid_points", Json::number(static_cast<double>(n)));
  Json plan = Json::object();
  plan.set("lambda_grid_plan_s", Json::number(t_plan));
  plan.set("lambda_grid_scalar_s", Json::number(t_scalar));
  plan.set("plan_speedup_vs_scalar", Json::number(speedup));
  plan.set("plan_max_rel_err", Json::number(plan_err));
  plan.set("plan_within_tolerance", Json::boolean(within_tol));
  report.set("eval_plan", plan);
  Json kernels = Json::object();
  auto kernel_entry = [](double batch, double scalar) {
    Json e = Json::object();
    e.set("batch_s", Json::number(batch));
    e.set("scalar_s", Json::number(scalar));
    e.set("speedup", Json::number(scalar / batch));
    return e;
  };
  kernels.set("cexp", kernel_entry(t_cexp_batch, t_cexp_scalar));
  kernels.set("horner", kernel_entry(t_horner_batch, t_horner_scalar));
  kernels.set("rational", kernel_entry(t_rational_batch, t_rational_scalar));
  kernels.set("pole_sums", kernel_entry(t_polesum_batch, t_polesum_scalar));
  report.set("kernels", kernels);
  Json simd_section = Json::object();
  simd_section.set("compiled", Json::boolean(simd::compiled()));
  simd_section.set("cpu_has_avx2_fma",
                   Json::boolean(simd::cpu_has_avx2_fma()));
  simd_section.set("isa", Json::string(simd::isa_name(resolved_isa)));
  simd_section.set(
      "lane_width",
      Json::number(static_cast<double>(simd::lane_width(resolved_isa))));
  simd_section.set("active", Json::boolean(simd_active));
  simd_section.set("cexp_simd_s", Json::number(t_cexp_simd));
  simd_section.set("cexp_forced_scalar_s",
                   Json::number(t_cexp_forced_scalar));
  simd_section.set("cexp_speedup", Json::number(simd_speedup));
  // The 1.8x gate only binds when the vector path is live; a scalar
  // dispatch (no AVX2, HTMPLL_SIMD=0, -DHTMPLL_SIMD=OFF) trivially
  // passes with speedup ~1.
  simd_section.set("gate_pass",
                   Json::boolean(!simd_active || simd_speedup >= 1.8));
  report.set("simd", simd_section);
  report.set("telemetry", bench::telemetry_json(phases));
  report.write_file(out_path);
  std::cout << "wrote " << out_path << "\n";

  const std::string trace_path = out_path + ".trace.json";
  obs::write_chrome_trace(trace_path);
  std::cout << "wrote " << trace_path << "\n";

  obs::RunReport manifest = bench::make_manifest("bench_kernels", phases);
  manifest.set_config("grid_points", static_cast<double>(n));
  manifest.set_config("reps", static_cast<double>(reps));
  const std::string manifest_path = out_path + ".manifest.json";
  manifest.write_json(manifest_path);
  std::cout << "wrote " << manifest_path << "\n";

  if (!obs_was_enabled) obs::disable();

  if (!within_tol) {
    std::cerr << "FAIL: eval-plan lambda_grid differs from the point-wise "
                 "sweep by " << plan_err << " (> 1e-12 relative)\n";
    return 1;
  }
  if (check && speedup < 1.5) {
    std::cerr << "FAIL: eval-plan lambda_grid speedup " << speedup
              << "x below the 1.5x target\n";
    return 1;
  }
  if (check && simd_active && simd_speedup < 1.8) {
    std::cerr << "FAIL: SIMD batch_cexp speedup " << simd_speedup
              << "x below the 1.8x target (isa "
              << simd::isa_name(resolved_isa) << ")\n";
    return 1;
  }
  return 0;
}
