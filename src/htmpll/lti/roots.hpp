// Polynomial root finding via the Aberth-Ehrlich simultaneous iteration.
//
// Used for pole/zero extraction of transfer functions, closed-loop pole
// searches, and the Jury/characteristic-polynomial stability tests.  The
// degrees involved are small (< 40), where Aberth converges in a handful
// of sweeps from Cauchy-bound initial guesses.
#pragma once

#include "htmpll/lti/polynomial.hpp"

namespace htmpll {

struct RootOptions {
  int max_iterations = 200;
  /// Relative step-size stopping criterion.  The sweeps also stop when
  /// the largest step is below 1e-9 and no smaller than the previous
  /// sweep's: the iteration has hit the rounding floor, which can lie
  /// above `tolerance`.  The obs counter lti.aberth_sweeps counts the
  /// sweeps run.
  double tolerance = 1e-13;
};

/// All complex roots of `p` (with multiplicity, as clustered numerical
/// copies).  Throws std::invalid_argument for the zero polynomial and
/// for a NaN or infinite coefficient; returns an empty vector for
/// (non-zero) constants.
CVector find_roots(const Polynomial& p, const RootOptions& opts = {});

/// Groups numerically coincident roots.  `tol` is an absolute distance
/// scaled internally by the root-cluster magnitude.
struct RootCluster {
  cplx value;          ///< centroid of the cluster
  int multiplicity;    ///< number of roots merged
};
std::vector<RootCluster> cluster_roots(const CVector& roots,
                                       double tol = 1e-6);

/// Upper bound on |root| (Cauchy bound).
double cauchy_root_bound(const Polynomial& p);

}  // namespace htmpll
