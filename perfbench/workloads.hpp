// Workloads of the end-to-end benchmark.
//
// A workload owns inputs generated from one seed and runs fixed-size
// passes over them.  run_pass() is the timed library work; check() reads
// the outputs of the last pass afterwards (untimed) and returns the
// correctness verdict, the worst accuracy against the workload's
// reference and a hash of every output bit.  Where the reference is
// costly (fd_design recomputes pointwise what the grids return), only
// check(true) compares against it; the harness runs that once and holds
// every later pass to the same output hash.
//
// Calls into each library layer are wrapped in benchmark-side spans
// named "bench.<layer>.<call>".  They record nothing unless obs is
// enabled, so the same run_pass() serves the untimed traced run.
#pragma once

#include <cstdint>
#include <memory>
#include <string>

namespace perfbench {

/// Per-pass facts a workload reports for the traced run, beyond what the
/// library counters and spans record (work sizes the benchmark knows).
struct PassWork {
  double grid_points = 0;        ///< s-points streamed through grid calls
  double pole_newton_iters = 0;  ///< Newton steps over all returned poles
  double probe_points = 0;       ///< transient probe measurements
  double mc_members = 0;         ///< noise-ensemble members
  double sim_periods = 0;        ///< reference periods simulated
};

struct PassCheck {
  bool ok = true;
  double max_rel_err = 0.0;
  std::uint64_t hash = 0;
  std::string failure;  ///< first failed check, empty when ok
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// One pass of library work over the generated inputs.
  virtual void run_pass() = 0;
  /// Verifies the outputs of the last pass; `reference` adds the costly
  /// comparisons against recomputed references.
  virtual PassCheck check(bool reference) const = 0;
  /// Work sizes of one pass (constant across passes).
  virtual PassWork work() const = 0;
};

/// Generates the inputs of workload `name` (fd_design, probe_verify or
/// mc_ensemble) from `seed`; the library only ever sees those generated
/// inputs.  Throws std::invalid_argument for an unknown name.
std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed);

}  // namespace perfbench
