#include "htmpll/timedomain/spectral.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "htmpll/linalg/batch_kernels.hpp"
#include "htmpll/linalg/lu.hpp"
#include "htmpll/lti/roots.hpp"
#include "htmpll/obs/diag.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll {

namespace {

/// phi1(z) = (e^z - 1)/z and phi2(z) = (phi1(z) - 1)/z of one complex
/// argument.  Below |z| = 0.5 they come downward from the phi3 series by
/// the recurrence phi_k = z phi_{k+1} + 1/k!, a stable multiplication;
/// the direct quotients are used only above, where no leading digits
/// cancel.
struct Phi12 {
  cplx phi1, phi2;
};

/// Branch predicate shared by every phi evaluation below.
/// hypot(x, +-0) == |x| exactly (IEEE 754), so real arguments -- every
/// mode of an overdamped loop filter -- skip the libm hypot call
/// without moving the branch point.
double phi_branch_magnitude(cplx z) {
  return z.imag() == 0.0 ? std::fabs(z.real()) : std::abs(z);
}

/// Series branch (|z| < 0.5).  The loop spells out the exact flop DAG
/// std::complex emits for `acc = acc * z + c` (C99 naive multiply; the
/// NaN-recovery call behind it never fires for the finite modal
/// arguments), so results are bit-identical to the complex Horner while
/// the per-iteration NaN checks disappear.  Does not need e^z, which
/// lets callers skip the exponential entirely on this branch.
static constexpr int kSeriesTerms = 16;
/// 1/(j+3)! for j = 0..kSeriesTerms: phi3(z) = sum_j z^j / (j+3)!, and
/// 16 terms reach full double precision at |z| = 0.5 (0.5^16 / 19! ~
/// 1e-22).  Evaluated once.
const std::array<double, kSeriesTerms + 1>& series_inv_fact() {
  static const auto table = [] {
    std::array<double, kSeriesTerms + 1> t{};
    double f = 6.0;  // 3!
    for (int j = 0; j <= kSeriesTerms; ++j) {
      t[static_cast<std::size_t>(j)] = 1.0 / f;
      f *= static_cast<double>(j + 4);
    }
    return t;
  }();
  return table;
}

/// General complex-argument series tail.  noinline on purpose: real
/// modal arguments (every overdamped filter) never reach it, and
/// keeping it out of line leaves the two callers below small enough to
/// inline into the build/theta-row hot loops.
__attribute__((noinline)) Phi12 phi12_series_complex(cplx z) {
  const auto& inv_fact = series_inv_fact();
  const double zr = z.real();
  const double zi = z.imag();
  double ar = 0.0, ai = 0.0;
  for (int j = kSeriesTerms; j >= 0; --j) {
    const double tr = ar * zr - ai * zi;
    ai = ar * zi + ai * zr;
    ar = tr + inv_fact[static_cast<std::size_t>(j)];
  }
  const double p2r = (zr * ar - zi * ai) + 0.5;
  const double p2i = zr * ai + zi * ar;
  const double p1r = (zr * p2r - zi * p2i) + 1.0;
  const double p1i = zr * p2i + zi * p2r;
  return {cplx{p1r, p1i}, cplx{p2r, p2i}};
}

__attribute__((always_inline)) inline Phi12 phi12_series(cplx z) {
  const double zr = z.real();
  const double zi = z.imag();
  if (zi == 0.0 && std::fabs(zr) < 0x1p-60) {
    // Near-zero real argument -- the integrator pole of every
    // phase-augmented loop at any step length.  The Horner reals are
    // pinned: |acc| <= e - 2.5 < 0.25, so |zr * acc| < 2^-62 can move
    // neither 0.5 (half-ulp 2^-55) nor 1.0 (half-ulp 2^-54), and the
    // imaginary lane only shuttles signed zeros (acc.re stays positive:
    // the smallest coefficient 1/19! ~ 8e-18 dominates |zr * acc|).
    // Their closed form: the 17 zero-products alternate sign only for
    // zi = -0 with zr negative.  Bit-identical to the full recurrence
    // (randomized differential coverage in test_spectral), at 1/20 the
    // dependency-chain latency.
    const double ai = (std::signbit(zi) && std::signbit(zr)) ? -0.0 : 0.0;
    const double p2i = zr * ai + zi * 1.0;
    const double p1i = zr * p2i + zi * 0.5;
    return {cplx{1.0, p1i}, cplx{0.5, p2i}};
  }
  if (zi == 0.0) {
    // Real-axis series (every mode of an overdamped filter).  With
    // zi = +-0 the imaginary Horner lane only shuttles signed zeros
    // whose signs are data-independent, and subtracting a signed zero
    // from the nonzero real products changes nothing (the accumulator
    // stays strictly positive: each partial sum lies within 20% of its
    // leading coefficient, and |zr| >= 2^-60 here keeps every product
    // normal), so the real lane collapses to a plain real Horner with
    // the identical rounding sequence.  The final signed zeros keep the
    // closed form of the fast-out above (same odd-count alternation).
    // Bit-identical to the full recurrence (randomized differential
    // coverage in test_spectral) at roughly half the dependency-chain
    // latency.
    const auto& inv_fact = series_inv_fact();
    double a = 0.0;
    for (int j = kSeriesTerms; j >= 0; --j) {
      a = a * zr + inv_fact[static_cast<std::size_t>(j)];
    }
    const double ai = (std::signbit(zi) && std::signbit(zr)) ? -0.0 : 0.0;
    const double p2r = zr * a + 0.5;
    const double p2i = zr * ai + zi * a;
    const double p1r = zr * p2r + 1.0;
    const double p1i = zr * p2i + zi * p2r;
    return {cplx{p1r, p1i}, cplx{p2r, p2i}};
  }
  return phi12_series_complex(z);
}

/// Quotient branch (|z| >= 0.5).  For a real argument (z.imag() a
/// signed zero) the two complex divisions collapse to the |c| >= |d|
/// Smith step of libgcc's __divdc3 with no scaling correction -- the
/// divisor is a normal magnitude in [0.5, |lambda| h] -- which
/// test_spectral pins bitwise against the library division across
/// random arguments.
__attribute__((always_inline)) inline Phi12 phi12_quotient(cplx z, cplx ez) {
  Phi12 p;
  // The isfinite guard keeps an overflowed e^z (both quotient parts
  // NaN) on the library division, whose Annex-G recovery step the
  // shortcut does not reproduce.
  if (z.imag() == 0.0 && std::isfinite(ez.real())) {
    const double c = z.real();
    const double d = z.imag();
    const double ratio = d / c;
    const double a1 = ez.real() - 1.0;
    const double b1 = ez.imag();
    const double denom = c + d * ratio;
    const double p1r = (a1 + b1 * ratio) / denom;
    const double p1i = (b1 - a1 * ratio) / denom;
    const double a2 = p1r - 1.0;
    const double p2r = (a2 + p1i * ratio) / denom;
    const double p2i = (p1i - a2 * ratio) / denom;
    p.phi1 = cplx{p1r, p1i};
    p.phi2 = cplx{p2r, p2i};
  } else {
    p.phi1 = (ez - 1.0) / z;
    p.phi2 = (p.phi1 - 1.0) / z;
  }
  return p;
}

__attribute__((always_inline)) inline Phi12 phi12_functions(cplx z, cplx ez) {
  return phi_branch_magnitude(z) < 0.5 ? phi12_series(z)
                                       : phi12_quotient(z, ez);
}

/// e^{z_k} for the modal arguments, bit-identical to batch_cexp for
/// n < 4, whose scalar tail evaluates libm exp/cos/sin per lane: a lane
/// with a +-0 imaginary part collapses to one exp call, since
/// cos(+-0) == 1 and sin(+-0) == +-0 exactly make m*cos(zi) == m and
/// m*sin(zi) == m*zi for every m = e^{zr} (the inf*0 -> NaN and NaN
/// cases round-trip through the product unchanged).  A |zr| below
/// 2^-60 -- the near-zero integrator pole of every phase-augmented
/// loop, at any step length -- skips even the exp: the argument is
/// under half an ulp of 1, so libm returns round(1 + zr) == 1.0
/// exactly (pinned by randomized differential coverage in
/// test_spectral).  Four or more modes defer to the shared kernel,
/// whose vectorized path is the value reference at that width.
/// Serves every modal build and the theta-row contraction.
void modal_cexp(const double* zre, const double* zim, std::size_t n,
                double* ere, double* eim) {
  if (n >= 4) {
    batch_cexp(zre, zim, n, ere, eim);
    return;
  }
  for (std::size_t k = 0; k < n; ++k) {
    const double m =
        std::fabs(zre[k]) < 0x1p-60 ? 1.0 : std::exp(zre[k]);
    if (zim[k] == 0.0) {
      ere[k] = m;
      eim[k] = m * zim[k];
    } else {
      ere[k] = m * std::cos(zim[k]);
      eim[k] = m * std::sin(zim[k]);
    }
  }
}

}  // namespace

PropagatorFactory::PropagatorFactory(RMatrix a, RMatrix b,
                                     bool allow_spectral)
    : a_(std::move(a)), b_(std::move(b)), requested_(allow_spectral) {
  HTMPLL_REQUIRE(a_.is_square(), "PropagatorFactory: A must be square");
  if (!b_.empty()) {
    HTMPLL_REQUIRE(b_.rows() == a_.rows(),
                   "PropagatorFactory: B row count mismatch");
  }
  // Both builds need finite data: a non-finite companion row has no
  // roots, and anywhere else the modal tables or the Van Loan expm
  // would carry it into every step.
  for (const RMatrix* m : {&a_, &b_}) {
    for (const double v : m->data()) {
      HTMPLL_REQUIRE(std::isfinite(v),
                     "PropagatorFactory: A and B must be finite");
    }
  }
  cond_ = std::numeric_limits<double>::infinity();
  if (requested_) try_spectral();
}

void PropagatorFactory::try_spectral() {
  const std::size_t n = a_.rows();

  // Only the phase-augmented single-input shape has a modal build: a
  // trailing all-zero column (the last state is a pure integral of the
  // others, theta) and one input column.  The full matrix then carries
  // a defective repeated eigenvalue whenever the filter block has a
  // pole at s = 0, so only the filter block is factored, and only in
  // to_state_space's companion layout: ones on the superdiagonal and
  // zeros elsewhere above the last row.
  if (n < 2 || b_.empty() || b_.cols() != 1) return;
  for (std::size_t i = 0; i < n; ++i) {
    if (a_(i, n - 1) != 0.0) return;
  }
  const std::size_t nf = n - 1;
  for (std::size_t i = 0; i + 1 < nf; ++i) {
    for (std::size_t j = 0; j < nf; ++j) {
      if (a_(i, j) != (j == i + 1 ? 1.0 : 0.0)) return;
    }
  }
  static obs::Counter& c_factor = obs::counter("linalg.eig_factorizations");
  c_factor.add();

  // The modes are the roots of the monic denominator
  // s^nf + sum_j a_j s^j, a_j = -A_f(nf-1, j), and the eigenvector of a
  // mode lambda is (1, lambda, ..., lambda^(nf-1)), scaled here to unit
  // 2-norm so that kappa_inf(V) measures the basis, not the scale of
  // the filter's time constants.
  std::vector<double> den(nf + 1, 1.0);
  for (std::size_t j = 0; j < nf; ++j) den[j] = -a_(nf - 1, j);
  const CVector modes = find_roots(Polynomial::from_real(den));
  CMatrix v(nf, nf);
  for (std::size_t k = 0; k < nf; ++k) {
    cplx power{1.0, 0.0};
    double norm2 = 0.0;
    for (std::size_t i = 0; i < nf; ++i) {
      v(i, k) = power;
      norm2 += std::norm(power);
      power *= modes[k];
    }
    const double norm = std::sqrt(norm2);
    for (std::size_t i = 0; i < nf; ++i) v(i, k) /= norm;
  }

  // Health gauge: the worst relative eigenpair residual
  // max_k ||A_f v_k - lambda_k v_k||_inf / ||A_f||_inf.  Computed only
  // while instrumentation records, so the production path pays one
  // relaxed load.
  if (obs::enabled()) {
    double scale = 0.0;
    for (std::size_t i = 0; i < nf; ++i) {
      double row = 0.0;
      for (std::size_t j = 0; j < nf; ++j) row += std::abs(a_(i, j));
      scale = std::max(scale, row);
    }
    double worst = 0.0;
    for (std::size_t k = 0; k < nf; ++k) {
      for (std::size_t i = 0; i < nf; ++i) {
        cplx av{0.0, 0.0};
        for (std::size_t j = 0; j < nf; ++j) av += a_(i, j) * v(j, k);
        worst = std::max(worst, std::abs(av - modes[k] * v(i, k)));
      }
    }
    obs::diag_gauge_max(obs::HealthGauge::kMaxEigenpairResidual,
                        worst / std::max(scale, 1e-300));
  }

  // A repeated root makes V singular.  Above ~1/eps the basis is
  // numerically defective -- V^{-1} exists in floating point but
  // reconstructs noise -- so the fallback is tagged "defective" rather
  // than merely "ill_conditioned".
  constexpr double kNumericallyDefective = 1e14;
  CMatrix vinv;
  try {
    vinv = CLu(v).inverse();
    cond_ = v.norm_inf() * vinv.norm_inf();
  } catch (const std::domain_error&) {
    cond_ = std::numeric_limits<double>::infinity();
  }
  if (!std::isfinite(cond_)) cond_ = std::numeric_limits<double>::infinity();
  if (cond_ > kMaxCondition) {
    obs::diag_event(cond_ > kNumericallyDefective
                        ? obs::DiagReason::kPadeFallbackDefective
                        : obs::DiagReason::kPadeFallbackIllConditioned,
                    cond_);
    return;
  }
  obs::diag_gauge_max(obs::HealthGauge::kMaxEigenbasisCondition, cond_);

  nf_ = nf;
  lambda_ = modes;
  proj_.assign(nf_, CMatrix(nf_, nf_));
  gmode_.assign(nf_, CVector(nf_));
  for (std::size_t k = 0; k < nf_; ++k) {
    // P_k = v_k w_k^T with w_k^T = row k of V^{-1}.
    for (std::size_t i = 0; i < nf_; ++i) {
      const cplx vk = v(i, k);
      for (std::size_t j = 0; j < nf_; ++j) {
        proj_[k](i, j) = vk * vinv(k, j);
      }
    }
    for (std::size_t i = 0; i < nf_; ++i) {
      cplx s{0.0, 0.0};
      for (std::size_t l = 0; l < nf_; ++l) s += proj_[k](i, l) * b_(l, 0);
      gmode_[k][i] = s;
    }
  }
  for (const auto& p : proj_) {
    for (const cplx& e : p.data()) {
      if (!std::isfinite(e.real()) || !std::isfinite(e.imag())) {
        obs::diag_event(obs::DiagReason::kPadeFallbackDefective, cond_);
        return;
      }
    }
  }

  // Theta-row contractions c^T P_i and c^T G_i.
  cproj_.assign(nf_, CVector(nf_, cplx{0.0, 0.0}));
  cgmode_.assign(nf_, cplx{0.0, 0.0});
  for (std::size_t k = 0; k < nf_; ++k) {
    for (std::size_t j = 0; j < nf_; ++j) {
      cplx s{0.0, 0.0};
      for (std::size_t i = 0; i < nf_; ++i) {
        s += a_(n - 1, i) * proj_[k](i, j);
      }
      cproj_[k][j] = s;
    }
    cplx s{0.0, 0.0};
    for (std::size_t i = 0; i < nf_; ++i) s += a_(n - 1, i) * gmode_[k][i];
    cgmode_[k] = s;
  }
  btheta_ = b_(n - 1, 0);
  zre_.resize(nf_);
  zim_.resize(nf_);
  ere_.resize(nf_);
  eim_.resize(nf_);
  trow_.resize(nf_);
  spectral_ = true;
}

void PropagatorFactory::make_into(double h, StepPropagator& out) const {
  HTMPLL_REQUIRE(h > 0.0 && std::isfinite(h),
                 "PropagatorFactory: step must be positive and finite");
  if (!spectral_) {
    out = make_propagator(a_, b_, h);
    return;
  }
  const std::size_t n = a_.rows();

  for (std::size_t k = 0; k < nf_; ++k) {
    zre_[k] = lambda_[k].real() * h;
    zim_[k] = lambda_[k].imag() * h;
  }
  modal_cexp(zre_.data(), zim_.data(), nf_, ere_.data(), eim_.data());

  StepPropagator& p = out;
  p.phi0.assign_zero(n, n);
  p.gamma1.assign_zero(n, 1);
  const double h2 = h * h;

  // The accumulation order (mode by mode, then row, then column) is part
  // of the contract: propagate_last_row_many repeats it for the theta
  // row bit for bit.
  double* trow = p.phi0.row(n - 1);
  double* g1 = p.gamma1.row(0);  // n x 1: column-stride 1, g1[i] = row i
  for (std::size_t k = 0; k < nf_; ++k) {
    const cplx z{zre_[k], zim_[k]};
    const cplx ez{ere_[k], eim_[k]};
    const Phi12 f = phi12_functions(z, ez);
    const double ezr = ez.real();
    const double ezi = ez.imag();
    for (std::size_t i = 0; i < nf_; ++i) {
      double* pr = p.phi0.row(i);
      const cplx* vr = proj_[k].row(i);
      for (std::size_t j = 0; j < nf_; ++j) {
        pr[j] += ezr * vr[j].real() - ezi * vr[j].imag();
      }
    }
    const cplx w1 = h * f.phi1;
    const double w1r = w1.real();
    const double w1i = w1.imag();
    const cplx* gm = gmode_[k].data();
    for (std::size_t i = 0; i < nf_; ++i) {
      g1[i] += w1r * gm[i].real() - w1i * gm[i].imag();
    }
    const cplx* cp = cproj_[k].data();
    for (std::size_t j = 0; j < nf_; ++j) {
      trow[j] += w1r * cp[j].real() - w1i * cp[j].imag();
    }
    const cplx w2 = h2 * f.phi2;
    const cplx& v = cgmode_[k];
    g1[n - 1] += w2.real() * v.real() - w2.imag() * v.imag();
  }
  trow[n - 1] = 1.0;  // theta carries itself
  g1[n - 1] += h * btheta_;
}

void PropagatorFactory::propagate_last_row_many(const double* h,
                                                std::size_t count,
                                                const double* x, double u,
                                                double* out) const {
  HTMPLL_ASSERT(spectral_);
  const std::size_t n = a_.rows();
  // At four or more modes batch_cexp's vectorized path is the value
  // reference, so every lane of an offset goes through one kernel call.
  const bool lazy_exp = nf_ < 4;
  double* row = trow_.data();

  for (std::size_t s = 0; s < count; ++s) {
    const double hs = h[s];
    HTMPLL_REQUIRE(hs >= 0.0 && std::isfinite(hs),
                   "PropagatorFactory: step must be non-negative and "
                   "finite");
    if (hs == 0.0) {
      out[s] = x[n - 1];
      continue;
    }
    for (std::size_t k = 0; k < nf_; ++k) {
      zre_[k] = lambda_[k].real() * hs;
      zim_[k] = lambda_[k].imag() * hs;
    }
    if (!lazy_exp) {
      modal_cexp(zre_.data(), zim_.data(), nf_, ere_.data(), eim_.data());
    }

    // Theta row of phi0 and gamma1, accumulated mode by mode in the same
    // order as make_into (starting from the assign_zero +0.0).
    const double h2 = hs * hs;
    for (std::size_t j = 0; j < nf_; ++j) row[j] = 0.0;
    double g1 = 0.0;
    for (std::size_t k = 0; k < nf_; ++k) {
      const cplx z{zre_[k], zim_[k]};
      Phi12 f;
      if (lazy_exp) {
        // Below four modes the reference e^z is the per-lane libm scalar
        // tail, and the series branch never reads it: the exponential is
        // evaluated only on the quotient branch.  Slow modes (|z| < 0.5,
        // e.g. the near-zero integrator pole at every sampling offset)
        // skip libm entirely.
        if (phi_branch_magnitude(z) < 0.5) {
          f = phi12_series(z);
        } else {
          const double m = std::exp(zre_[k]);
          const cplx ez = zim_[k] == 0.0
                              ? cplx{m, m * zim_[k]}
                              : cplx{m * std::cos(zim_[k]),
                                     m * std::sin(zim_[k])};
          f = phi12_quotient(z, ez);
        }
      } else {
        f = phi12_functions(z, {ere_[k], eim_[k]});
      }
      const cplx w1 = hs * f.phi1;
      for (std::size_t j = 0; j < nf_; ++j) {
        const cplx& v = cproj_[k][j];
        row[j] += w1.real() * v.real() - w1.imag() * v.imag();
      }
      const cplx w2 = h2 * f.phi2;
      const cplx& v = cgmode_[k];
      g1 += w2.real() * v.real() - w2.imag() * v.imag();
    }

    // advance_into's row n-1: zero-seeded dot over all n columns (the
    // theta diagonal entry is exactly 1.0), then the 0.0 + gamma1 * u0
    // term guarded exactly like the full kernel.
    double acc = 0.0;
    for (std::size_t j = 0; j < nf_; ++j) acc += row[j] * x[j];
    acc += 1.0 * x[n - 1];
    g1 += hs * btheta_;
    acc += 0.0 + g1 * u;
    out[s] = acc;
  }
}

}  // namespace htmpll
