// The fold kernel behind every NoiseAnalysis grid API, on caller-supplied
// transfer planes.
//
// NoiseAnalysis's grids build their planes (H_00, the tracking factor)
// through the compiled eval plan and then call this kernel with the
// dispatch ISA.  It is declared here so tests can hold the planes fixed
// and compare the kernel's two builds bit for bit: the plan itself runs
// different exp/sincos code per ISA, so the public grids differ across
// ISAs in their last bits even though the kernel does not.
#pragma once

#include <vector>

#include "htmpll/linalg/simd.hpp"
#include "htmpll/noise/noise.hpp"

namespace htmpll::detail {

/// The sources one fold pass adds up, in this order; a null entry is
/// left out.
struct NoiseSources {
  const PsdFunction* ref = nullptr;
  const PsdFunction* vco = nullptr;
  const PsdFunction* icp = nullptr;
};

/// out[i] = the folded output PSD at w_grid[i] of every source in
/// `sources`, given the planes at s = j w_grid[i]: `h00` = H_00 (needed
/// by the reference and VCO sources) and `tracking` = V~_0/(1+lambda)
/// (needed by the charge pump); either may be null when no source reads
/// it.  `isa` == kAvx2Fma runs the AVX2 build of the kernel when it is
/// compiled in, anything else the baseline build; both give the same
/// bits.  Adds (2 fold_harmonics + 1) n to `noise.fold_terms` per folded
/// source.
std::vector<double> fold_noise_grid(const SamplingPllModel& model,
                                    int fold_harmonics,
                                    const std::vector<double>& w_grid,
                                    const cplx* h00, const cplx* tracking,
                                    const NoiseSources& sources,
                                    simd::Isa isa);

}  // namespace htmpll::detail
