// Timing claim (Section 5): "evaluating (38) is only a matter of
// seconds while it takes several minutes for the time-marching
// simulations to complete."
//
// Micro-benchmarks:
//  * BM_HtmPoint        -- one H_00(jw) evaluation via the exact lambda
//  * BM_HtmFullSweep    -- a complete 33-point Fig. 6 curve
//  * BM_HtmMatrixSolve  -- one truncated-HTM rank-one closed-loop solve
//  * BM_TransientProbe  -- one simulator measurement at one frequency
//  * BM_TransientProbeManyCold -- the batched multi-frequency probe
//    (measure_baseband_transfer_many), each point settled from rest
//
// The expected outcome is the paper's, only more extreme on modern
// hardware: the frequency-domain model is many orders of magnitude
// faster than time-marching per data point.
#include <numbers>

#include <benchmark/benchmark.h>

#include "htmpll/core/sampling_pll.hpp"
#include "htmpll/timedomain/probe.hpp"
#include "htmpll/util/grid.hpp"

namespace {

constexpr double kW0 = 2.0 * std::numbers::pi;
const htmpll::cplx kJ{0.0, 1.0};

void BM_HtmPoint(benchmark::State& state) {
  using namespace htmpll;
  const SamplingPllModel model(make_typical_loop(0.2 * kW0, kW0));
  const cplx s = kJ * (0.17 * kW0);
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.baseband_transfer(s));
  }
}
BENCHMARK(BM_HtmPoint);

void BM_HtmFullSweep(benchmark::State& state) {
  using namespace htmpll;
  const SamplingPllModel model(make_typical_loop(0.2 * kW0, kW0));
  const std::vector<double> grid = logspace(1e-3 * kW0, 0.49 * kW0, 33);
  for (auto _ : state) {
    cplx acc{0.0};
    for (double w : grid) acc += model.baseband_transfer(kJ * w);
    benchmark::DoNotOptimize(acc);
  }
}
BENCHMARK(BM_HtmFullSweep);

void BM_HtmMatrixSolve(benchmark::State& state) {
  using namespace htmpll;
  const SamplingPllModel model(make_typical_loop(0.2 * kW0, kW0));
  const cplx s = kJ * (0.17 * kW0);
  const int k = static_cast<int>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(model.closed_loop_htm(s, k));
  }
}
BENCHMARK(BM_HtmMatrixSolve)->Arg(8)->Arg(16)->Arg(32);

void BM_TransientProbe(benchmark::State& state) {
  using namespace htmpll;
  const PllParameters params = make_typical_loop(0.2 * kW0, kW0);
  ProbeOptions opts;
  opts.settle_periods = 400.0;
  opts.measure_periods = 24;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        measure_baseband_transfer(params, 0.17 * kW0, opts));
  }
}
BENCHMARK(BM_TransientProbe)->Unit(benchmark::kMillisecond)->Iterations(3);

void BM_TransientProbeManyCold(benchmark::State& state) {
  using namespace htmpll;
  const PllParameters params = make_typical_loop(0.2 * kW0, kW0);
  const std::vector<double> omegas = logspace(0.05 * kW0, 0.45 * kW0, 8);
  ProbeOptions opts;
  opts.settle_periods = 300.0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        measure_baseband_transfer_many(params, omegas, opts));
  }
}
BENCHMARK(BM_TransientProbeManyCold)
    ->Unit(benchmark::kMillisecond)
    ->Iterations(2);

}  // namespace

BENCHMARK_MAIN();
