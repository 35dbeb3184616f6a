#include "htmpll/timedomain/spectral.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <type_traits>
#include <vector>

#include "htmpll/linalg/lu.hpp"
#include "htmpll/lti/roots.hpp"
#include "htmpll/obs/diag.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll {

namespace {

/// phi3(z) = sum_j z^j / (j+3)! for j = 0..kMaxSeriesTerms-1; 17 terms
/// reach full double precision anywhere on the series branch |z| < 0.5
/// (0.5^17 / 20! ~ 3e-24).
constexpr int kMaxSeriesTerms = 17;

/// 1/(j+3)! for j = 0..kMaxSeriesTerms-1.  Evaluated once.
const std::array<double, kMaxSeriesTerms>& series_inv_fact() {
  static const auto table = [] {
    std::array<double, kMaxSeriesTerms> t{};
    double f = 6.0;  // 3!
    for (int j = 0; j < kMaxSeriesTerms; ++j) {
      t[static_cast<std::size_t>(j)] = 1.0 / f;
      f *= static_cast<double>(j + 4);
    }
    return t;
  }();
  return table;
}

/// Real series arguments 2^-60 <= |z| < 0.5 by binade: entry i covers
/// [2^(-2-i), 2^(-1-i)).
constexpr int kSeriesBinades = 59;

/// Shortest phi3 series per binade: the fewest terms m whose tail
/// sum_{j>=m} r^j / (j+3)! <= r^m / (m+3)! / (1 - r / (m+4)), r the
/// binade's upper end, stays below 2^-56 phi3(-r) -- a sixteenth of an
/// ulp of the smallest phi3 on [-r, r] (phi3 increases along the real
/// axis).  From 14 terms just below |z| = 0.5 down to 1 below 2^-54.
/// Evaluated once.
const std::array<int, kSeriesBinades>& series_terms() {
  static const auto table = [] {
    const auto& inv_fact = series_inv_fact();
    std::array<int, kSeriesBinades> t{};
    for (int i = 0; i < kSeriesBinades; ++i) {
      const double r = std::ldexp(1.0, -1 - i);
      double phi3 = 0.0;
      for (int j = kMaxSeriesTerms - 1; j >= 0; --j) {
        phi3 = phi3 * -r + inv_fact[static_cast<std::size_t>(j)];
      }
      int m = 1;
      while (m < kMaxSeriesTerms &&
             std::pow(r, m) * inv_fact[static_cast<std::size_t>(m)] /
                     (1.0 - r / (m + 4)) >
                 0x1p-56 * phi3) {
        ++m;
      }
      t[static_cast<std::size_t>(i)] = m;
    }
    return t;
  }();
  return table;
}

/// e^z, phi1(z) = (e^z - 1)/z and phi2(z) = (phi1(z) - 1)/z of one modal
/// argument z = lambda h.
template <class T>
struct PhiValues {
  T e, phi1, phi2;
};

/// Real argument, the branch of every mode of the typical and
/// second-order loops.  Below |z| = 0.5 the phi functions come downward
/// from the shortest phi3 series by the recurrence
/// phi_k = z phi_{k+1} + 1/k!, a stable multiplication, and
/// e^z = 1 + z phi1(z) needs no exp call; below 2^-60 (the integrator
/// pole at any step length) every term past the constant is under half
/// an ulp, so e^z, phi1 and phi2 are exactly 1, 1 and 1/2.  Above, the
/// direct quotients lose no leading digit.  Evaluated in real arithmetic: on a
/// real argument the library complex division reduces to it
/// (PhiShortcutIdentitiesMatchLibraryOps).
PhiValues<double> phi_values(double z) {
  const double a = std::fabs(z);
  if (a < 0x1p-60) return {1.0, 1.0, 0.5};
  if (a < 0.5) {
    const auto& inv_fact = series_inv_fact();
    const int binade =
        static_cast<int>((std::bit_cast<std::uint64_t>(a) >> 52) & 0x7ff) -
        1023;
    const int m = series_terms()[static_cast<std::size_t>(-2 - binade)];
    double acc = inv_fact[static_cast<std::size_t>(m - 1)];
    for (int j = m - 2; j >= 0; --j) {
      acc = acc * z + inv_fact[static_cast<std::size_t>(j)];
    }
    const double phi2 = z * acc + 0.5;
    const double phi1 = z * phi2 + 1.0;
    return {z * phi1 + 1.0, phi1, phi2};
  }
  const double e = std::exp(z);
  const double phi1 = (e - 1.0) / z;
  return {e, phi1, (phi1 - 1.0) / z};
}

/// Complex argument (an underdamped filter pair): the full 17-term
/// series below |z| = 0.5, the library complex quotients above.
PhiValues<cplx> phi_values(cplx z) {
  const double m = std::exp(z.real());
  const cplx e{m * std::cos(z.imag()), m * std::sin(z.imag())};
  if (std::abs(z) >= 0.5) {
    const cplx phi1 = (e - 1.0) / z;
    return {e, phi1, (phi1 - 1.0) / z};
  }
  // The complex Horner spelled out as real flops, as in combine() below.
  const auto& inv_fact = series_inv_fact();
  const double zr = z.real();
  const double zi = z.imag();
  double ar = 0.0, ai = 0.0;
  for (int j = kMaxSeriesTerms - 1; j >= 0; --j) {
    const double tr = ar * zr - ai * zi;
    ai = ar * zi + ai * zr;
    ar = tr + inv_fact[static_cast<std::size_t>(j)];
  }
  const double p2r = (zr * ar - zi * ai) + 0.5;
  const double p2i = zr * ai + zi * ar;
  const double p1r = (zr * p2r - zi * p2i) + 1.0;
  const double p1i = zr * p2i + zi * p2r;
  return {e, cplx{p1r, p1i}, cplx{p2r, p2i}};
}

/// p alpha + q beta u.  The complex products are spelled out as real
/// flops (std::complex's multiply adds a NaN-recovery call the finite
/// modal data never needs).
inline double combine(double p, double alpha, double q, double beta,
                      double u) {
  return p * alpha + q * (beta * u);
}
inline cplx combine(cplx p, cplx alpha, cplx q, cplx beta, double u) {
  const double bur = beta.real() * u;
  const double bui = beta.imag() * u;
  return {(p.real() * alpha.real() - p.imag() * alpha.imag()) +
              (q.real() * bur - q.imag() * bui),
          (p.real() * alpha.imag() + p.imag() * alpha.real()) +
              (q.real() * bui + q.imag() * bur)};
}

/// Re(a b).
inline double re_product(double a, double b) { return a * b; }
inline double re_product(cplx a, cplx b) {
  return a.real() * b.real() - a.imag() * b.imag();
}

/// The block's entry of a mode's complex modal datum: a real mode keeps
/// the real part (its imaginary part is zero, or rounding where complex
/// modes share the basis).
template <class T>
T narrow(cplx z) {
  if constexpr (std::is_same_v<T, double>) {
    return z.real();
  } else {
    return z;
  }
}

/// The modal data of the modes `which` (indices into `modes`).
template <class T>
detail::ModeBlock<T> mode_block(const std::vector<std::size_t>& which,
                                const CVector& modes, const CMatrix& v,
                                const CMatrix& vinv, const CVector& beta,
                                const CVector& cv) {
  const std::size_t nf = v.rows();
  detail::ModeBlock<T> m;
  m.v = DenseMatrix<T>(which.size(), nf);
  m.w = DenseMatrix<T>(which.size(), nf);
  for (std::size_t r = 0; r < which.size(); ++r) {
    const std::size_t k = which[r];
    m.lambda.push_back(narrow<T>(modes[k]));
    m.beta.push_back(narrow<T>(beta[k]));
    m.cv.push_back(narrow<T>(cv[k]));
    for (std::size_t i = 0; i < nf; ++i) {
      m.v(r, i) = narrow<T>(v(i, k));
      m.w(r, i) = narrow<T>(vinv(k, i));
    }
  }
  return m;
}

// The contractions, one body for both mode kinds.

template <class T>
void evaluate_modes(const detail::ModeBlock<T>& m, double h,
                    ModeScalars<T>& out) {
  const std::size_t count = m.lambda.size();
  out.e.resize(count);
  out.g1.resize(count);
  out.g2.resize(count);
  const double h2 = h * h;
  for (std::size_t k = 0; k < count; ++k) {
    const PhiValues<T> f = phi_values(m.lambda[k] * h);
    out.e[k] = f.e;
    out.g1[k] = h * f.phi1;
    out.g2[k] = h2 * f.phi2;
  }
}

/// alpha_k = w_k^T x_f.
template <class T>
void project_modes(const detail::ModeBlock<T>& m, const double* x,
                   std::vector<T>& alpha) {
  const std::size_t nf = m.w.cols();
  alpha.resize(m.lambda.size());
  for (std::size_t k = 0; k < alpha.size(); ++k) {
    const T* w = m.w.row(k);
    T acc{};
    for (std::size_t j = 0; j < nf; ++j) acc += w[j] * x[j];
    alpha[k] = acc;
  }
}

/// out += Re sum_k v_k alpha_k.
template <class T>
void rebuild_modes(const detail::ModeBlock<T>& m, const std::vector<T>& alpha,
                   double* out) {
  const std::size_t nf = m.v.cols();
  for (std::size_t k = 0; k < alpha.size(); ++k) {
    const T* v = m.v.row(k);
    for (std::size_t i = 0; i < nf; ++i) out[i] += re_product(v[i], alpha[k]);
  }
}

/// alpha_k(h) = e_k alpha_k + g1_k beta_k u into `out` (may be `alpha`).
template <class T>
void advance_modes(const detail::ModeBlock<T>& m, const ModeScalars<T>& s,
                   const std::vector<T>& alpha, double u,
                   std::vector<T>& out) {
  out.resize(alpha.size());
  for (std::size_t k = 0; k < alpha.size(); ++k) {
    out[k] = combine(s.e[k], alpha[k], s.g1[k], m.beta[k], u);
  }
}

/// acc + Re sum_k c^T v_k (g1_k alpha_k + g2_k beta_k u).
template <class T>
double theta_terms(const detail::ModeBlock<T>& m, const ModeScalars<T>& s,
                   const std::vector<T>& alpha, double u, double acc) {
  for (std::size_t k = 0; k < alpha.size(); ++k) {
    acc += re_product(m.cv[k],
                      combine(s.g1[k], alpha[k], s.g2[k], m.beta[k], u));
  }
  return acc;
}

/// acc + Re sum_k c^T v_k alpha_k(h).
template <class T>
double rate_terms(const detail::ModeBlock<T>& m, const ModeScalars<T>& s,
                  const std::vector<T>& alpha, double u, double acc) {
  for (std::size_t k = 0; k < alpha.size(); ++k) {
    acc += re_product(m.cv[k],
                      combine(s.e[k], alpha[k], s.g1[k], m.beta[k], u));
  }
  return acc;
}

/// acc + Re sum_k c^T v_k alpha_k.
template <class T>
double state_rate_terms(const detail::ModeBlock<T>& m,
                        const std::vector<T>& alpha, double acc) {
  for (std::size_t k = 0; k < alpha.size(); ++k) {
    acc += re_product(m.cv[k], alpha[k]);
  }
  return acc;
}

}  // namespace

PropagatorFactory::PropagatorFactory(RMatrix a, RMatrix b)
    : a_(std::move(a)), b_(std::move(b)) {
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
  try_spectral();
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
  static obs::Gauge& g_residual =
      obs::gauge("timedomain.max_eigenpair_residual");
  static obs::Gauge& g_condition =
      obs::gauge("timedomain.max_eigenbasis_condition");
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
    g_residual.raise(worst / std::max(scale, 1e-300));
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
  g_condition.raise(cond_);

  CVector beta(nf, cplx{0.0, 0.0});
  CVector cv(nf, cplx{0.0, 0.0});
  std::vector<std::size_t> real_modes, complex_modes;
  for (std::size_t k = 0; k < nf; ++k) {
    for (std::size_t i = 0; i < nf; ++i) {
      beta[k] += vinv(k, i) * b_(i, 0);
      cv[k] += a_(n - 1, i) * v(i, k);
    }
    (modes[k].imag() == 0.0 ? real_modes : complex_modes).push_back(k);
  }
  const auto finite = [](const CVector& m) {
    return std::all_of(m.begin(), m.end(), [](cplx e) {
      return std::isfinite(e.real()) && std::isfinite(e.imag());
    });
  };
  if (!finite(vinv.data()) || !finite(beta) || !finite(cv)) {
    obs::diag_event(obs::DiagReason::kPadeFallbackDefective, cond_);
    return;
  }
  nf_ = nf;
  real_ = mode_block<double>(real_modes, modes, v, vinv, beta, cv);
  complex_ = mode_block<cplx>(complex_modes, modes, v, vinv, beta, cv);
  btheta_ = b_(n - 1, 0);
  spectral_ = true;
}

void PropagatorFactory::make_into(double h, StepPropagator& out) const {
  HTMPLL_REQUIRE(h > 0.0 && std::isfinite(h),
                 "PropagatorFactory: step must be positive and finite");
  out = make_propagator(a_, b_, h);
}

void PropagatorFactory::evaluate(double h, ModalStep& out) const {
  HTMPLL_REQUIRE(h > 0.0 && std::isfinite(h),
                 "PropagatorFactory: step must be positive and finite");
  HTMPLL_ASSERT(spectral_);
  out.h = h;
  evaluate_modes(real_, h, out.real_modes);
  evaluate_modes(complex_, h, out.complex_modes);
}

void PropagatorFactory::project(const double* x, ModalState& out) const {
  HTMPLL_ASSERT(spectral_);
  project_modes(real_, x, out.real_modes);
  project_modes(complex_, x, out.complex_modes);
  out.theta = x[nf_];
}

void PropagatorFactory::rebuild(const ModalState& a, double* out) const {
  HTMPLL_ASSERT(spectral_);
  for (std::size_t i = 0; i < nf_; ++i) out[i] = 0.0;
  rebuild_modes(real_, a.real_modes, out);
  rebuild_modes(complex_, a.complex_modes, out);
  out[nf_] = a.theta;
}

double PropagatorFactory::theta_increment(const ModalStep& s,
                                          const ModalState& a,
                                          double u) const {
  double acc = theta_terms(real_, s.real_modes, a.real_modes, u, 0.0);
  acc = theta_terms(complex_, s.complex_modes, a.complex_modes, u, acc);
  return acc + s.h * btheta_ * u;
}

void PropagatorFactory::advance(const ModalStep& s, const ModalState& a,
                                double u, ModalState& out) const {
  HTMPLL_ASSERT(spectral_);
  // theta first: `out` may be `a`.
  const double theta = a.theta + theta_increment(s, a, u);
  advance_modes(real_, s.real_modes, a.real_modes, u, out.real_modes);
  advance_modes(complex_, s.complex_modes, a.complex_modes, u,
                out.complex_modes);
  out.theta = theta;
}

double PropagatorFactory::theta(const ModalStep& s, const ModalState& a,
                                double u) const {
  HTMPLL_ASSERT(spectral_);
  return a.theta + theta_increment(s, a, u);
}

ThetaRows PropagatorFactory::theta_rows(const ModalStep& s,
                                        const ModalState& a,
                                        double u) const {
  HTMPLL_ASSERT(spectral_);
  double rate = rate_terms(real_, s.real_modes, a.real_modes, u, 0.0);
  rate = rate_terms(complex_, s.complex_modes, a.complex_modes, u, rate);
  return {a.theta + theta_increment(s, a, u), rate + btheta_ * u};
}

double PropagatorFactory::rate(const ModalState& a, double u) const {
  HTMPLL_ASSERT(spectral_);
  double rate = state_rate_terms(real_, a.real_modes, 0.0);
  rate = state_rate_terms(complex_, a.complex_modes, rate);
  return rate + btheta_ * u;
}

}  // namespace htmpll
