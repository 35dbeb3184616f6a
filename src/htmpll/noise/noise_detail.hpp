// The fold kernel behind NoiseAnalysis::output_psd_grid, on a
// caller-supplied transfer plane.
//
// NoiseAnalysis::output_psd_grid builds the H_00 plane through the
// compiled eval plan and then calls this kernel with the dispatch ISA.
// It is declared here so tests can hold the plane fixed and compare the
// kernel's two builds bit for bit: the plan itself runs different
// exp/sincos code per ISA, so the public grid differs across ISAs in
// its last bits even though the kernel does not.
#pragma once

#include <vector>

#include "htmpll/linalg/simd.hpp"
#include "htmpll/noise/noise.hpp"

namespace htmpll::detail {

/// out[i] = the folded output PSD at w_grid[i] of the three sources,
/// given the plane `h00` = H_00 at s = j w_grid[i], which also serves
/// as the charge-pump tracking factor V~_0/(1+lambda).  `isa` ==
/// kAvx2Fma runs the AVX2 build of the kernel when it is compiled in,
/// anything else the baseline build; both give the same bits.  Adds
/// 2 (2 fold_harmonics + 1) n to `noise.fold_terms` (the VCO and
/// charge-pump bands).
std::vector<double> fold_noise_grid(const SamplingPllModel& model,
                                    int fold_harmonics,
                                    const std::vector<double>& w_grid,
                                    const cplx* h00, const PowerLawPsd& s_ref,
                                    const PowerLawPsd& s_vco,
                                    const PowerLawPsd& s_icp, simd::Isa isa);

}  // namespace htmpll::detail
