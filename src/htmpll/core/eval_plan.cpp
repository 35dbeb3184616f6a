#include "htmpll/core/eval_plan.hpp"

#include <algorithm>
#include <cmath>
#include <numbers>

#include "htmpll/obs/diag.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/obs/trace.hpp"
#include "htmpll/parallel/thread_pool.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll {

namespace {

/// Grid points per chunk: large enough to amortize kernel setup and the
/// split/join passes, small enough that one block's scratch planes
/// (including the shifted-gain table) stay cache-resident.
constexpr std::size_t kBlock = 256;

obs::Counter& plan_points_counter() {
  static obs::Counter& ctr = obs::counter("core.plan_grid_points");
  return ctr;
}

/// Plane quotient num[i] /= den[i] by the batch_complex_div formula
/// num conj(den) / |den|^2, so no lane pays a libgcc complex division.
/// A lane whose |den|^2 leaves [1e-290, 1e290] (zero, overflow, NaN)
/// instead takes `fallback(i, num)`: the scalar model's std::complex
/// expression with its domain check, which therefore still throws on a
/// zero denominator.  Such lanes are recorded like batch_complex_div's.
/// The range is tested for the whole block first, so a block with no
/// such lane (every block of the design grids) runs a branch-free loop
/// the compiler vectorizes.
template <class Fallback>
void divide_planes(double* num_re, double* num_im, const double* den_re,
                   const double* den_im, std::size_t n,
                   const Fallback& fallback) {
  bool in_range = true;
  for (std::size_t i = 0; i < n; ++i) {
    const double d2 = den_re[i] * den_re[i] + den_im[i] * den_im[i];
    in_range &= d2 >= 1e-290 && d2 <= 1e290;
  }
  if (in_range) {
    for (std::size_t i = 0; i < n; ++i) {
      const double nr = num_re[i];
      const double ni = num_im[i];
      const double dr = den_re[i];
      const double di = den_im[i];
      const double inv = 1.0 / (dr * dr + di * di);
      num_re[i] = (nr * dr + ni * di) * inv;
      num_im[i] = (ni * dr - nr * di) * inv;
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double nr = num_re[i];
    const double ni = num_im[i];
    const double dr = den_re[i];
    const double di = den_im[i];
    const double d2 = dr * dr + di * di;
    if (d2 >= 1e-290 && d2 <= 1e290) {
      const double inv = 1.0 / d2;
      num_re[i] = (nr * dr + ni * di) * inv;
      num_im[i] = (ni * dr - nr * di) * inv;
    } else {
      obs::diag_event(obs::DiagReason::kSimdBailoutGuardTrip, d2);
      const cplx q = fallback(i, cplx{nr, ni});
      num_re[i] = q.real();
      num_im[i] = q.imag();
    }
  }
}

}  // namespace

/// Per-thread workspace for one block of grid points.  All planes are
/// caller-sized per block; capacity persists across blocks and sweeps,
/// so the steady state performs no heap allocation.  thread_local
/// storage keeps concurrent sweeps (and pool workers) disjoint.
struct EvalPlan::Scratch {
  // Split planes of the current block.
  std::vector<double> s_re, s_im;
  // Argument and value planes of the shared exp(-sT) pass.
  std::vector<double> arg_re, arg_im, e_re, e_im;
  // Pole-sum accumulators (exact lambda) and their derivative twins.
  std::vector<double> acc_re, acc_im, dacc_re, dacc_im;
  // Denominator planes (batch_rational temporaries, then plane
  // quotients) and the shifted imaginary plane.
  std::vector<double> den_re, den_im, im_shift;
  // Numerator planes of a plane quotient; they hold its result after.
  std::vector<double> num_re, num_im;
  // Shifted-gain table, planes laid out [(m + mspan) * n + i].
  std::vector<double> g_re, g_im;
  // Per-point lambda and PFD-shape prefactor of the block.
  std::vector<cplx> lam, pre;

  void resize_point_planes(std::size_t n) {
    s_re.resize(n);
    s_im.resize(n);
    arg_re.resize(n);
    arg_im.resize(n);
    e_re.resize(n);
    e_im.resize(n);
    acc_re.resize(n);
    acc_im.resize(n);
    dacc_re.resize(n);
    dacc_im.resize(n);
    den_re.resize(n);
    den_im.resize(n);
    im_shift.resize(n);
    num_re.resize(n);
    num_im.resize(n);
    lam.resize(n);
    pre.resize(n);
  }
};

EvalPlan::Scratch& EvalPlan::thread_scratch() {
  thread_local Scratch sc;
  return sc;
}

std::shared_ptr<const EvalPlan> EvalPlan::build(
    const SamplingPllModel& model) {
  HTMPLL_TRACE_SPAN("core.plan_build");
  std::shared_ptr<EvalPlan> plan(new EvalPlan());
  plan->w0_ = model.params_.w0;
  plan->t_ = model.params_.period();
  plan->c_ = std::numbers::pi / plan->w0_;
  plan->front_ = plan->w0_ / (2.0 * std::numbers::pi);
  plan->shape_ = model.opts_.pfd_shape;
  plan->hlf_num_ = model.hlf_.num().coefficients();
  plan->hlf_den_ = model.hlf_.den().coefficients();
  const RationalFunction lti = model.a_.closed_loop_unity_feedback();
  plan->lti_num_ = lti.num().coefficients();
  plan->lti_den_ = lti.den().coefficients();

  for (const auto& ch : model.channels_) {
    plan->channels_.push_back(ChannelWeight{ch.k, ch.v_k});
    plan->hmax_ = std::max(plan->hmax_, std::abs(ch.k));
  }

  // Flatten the exact closed form: every channel's partial-fraction
  // pole terms (multiplicity 1..4, checked by the model), in the scalar
  // evaluation order (channels outer, terms inner), each carrying
  // exp(p T) for the shared-exponential factorization
  // exp(-2u) = exp(-sT) exp(pT).
  for (const auto& ch : model.channels_) {
    for (const PoleTerm& term : ch.sum.partial_fractions().terms()) {
      PoleSumTerm t;
      t.pole = term.pole;
      t.kmax = static_cast<int>(term.residues.size());
      for (std::size_t j = 0; j < term.residues.size(); ++j) {
        t.residues[j] = term.residues[j];
      }
      const cplx ept = std::exp(term.pole * plan->t_);
      const double mag = std::abs(ept);
      t.exp_pole_t = ept;
      // Factoring through exp(pT) is only sound while that factor is a
      // normal number; otherwise every point recomputes exp(-2u)
      // directly (still exact, just without the shared plane).
      t.factored = std::isfinite(ept.real()) && std::isfinite(ept.imag()) &&
                   mag > 1e-250 && mag < 1e250;
      if (!t.factored) {
        obs::diag_event(obs::DiagReason::kPlanExpOverflowFallback, mag);
      }
      plan->exact_terms_.push_back(t);
    }
  }

  // Derivative tables: d/ds sum_k r_k S_k(c(s-p)) = sum_k -k r_k
  // S_{k+1}(c(s-p)), so every exact term differentiates to a second
  // PoleSumTerm with the same pole / exp(pT) / factored flag and the
  // residue table shifted one order up.  Requires headroom for the
  // order bump: multiplicity <= 3.
  plan->deriv_usable_ = true;
  for (const PoleSumTerm& t : plan->exact_terms_) {
    if (t.kmax > 3) {
      plan->deriv_usable_ = false;
      break;
    }
    PoleSumTerm d = t;
    d.kmax = t.kmax + 1;
    d.residues[0] = cplx{0.0};
    for (int k = 1; k <= t.kmax; ++k) {
      d.residues[k] = -static_cast<double>(k) * t.residues[k - 1];
    }
    plan->deriv_terms_.push_back(d);
  }
  if (!plan->deriv_usable_) plan->deriv_terms_.clear();

  obs::counter("core.plan_builds").add();
  return plan;
}

void EvalPlan::load_block(const cplx* s, std::size_t n, Scratch& sc) const {
  sc.resize_point_planes(n);
  split_planes(s, n, sc.s_re.data(), sc.s_im.data());
  for (std::size_t i = 0; i < n; ++i) {
    sc.arg_re[i] = -t_ * sc.s_re[i];
    sc.arg_im[i] = -t_ * sc.s_im[i];
  }
  batch_cexp(sc.arg_re.data(), sc.arg_im.data(), n, sc.e_re.data(),
             sc.e_im.data());
}

void EvalPlan::prefactor_block(std::size_t n, Scratch& sc) const {
  if (shape_ == PfdShape::kImpulse) {
    std::fill_n(sc.pre.data(), n, cplx{1.0});
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    sc.pre[i] = 1.0 - cplx{sc.e_re[i], sc.e_im[i]};
  }
}

void EvalPlan::exact_lambda_block(std::size_t n, Scratch& sc) const {
  std::fill_n(sc.acc_re.data(), n, 0.0);
  std::fill_n(sc.acc_im.data(), n, 0.0);
  for (const PoleSumTerm& term : exact_terms_) {
    accumulate_pole_sums(term, c_, sc.s_re.data(), sc.s_im.data(),
                         sc.e_re.data(), sc.e_im.data(), n,
                         sc.acc_re.data(), sc.acc_im.data());
  }
  for (std::size_t i = 0; i < n; ++i) {
    sc.lam[i] = sc.pre[i] * cplx{sc.acc_re[i], sc.acc_im[i]};
  }
}

void EvalPlan::gains_block(std::size_t n, int mspan, Scratch& sc) const {
  const std::size_t planes = 2 * static_cast<std::size_t>(mspan) + 1;
  sc.g_re.resize(planes * n);
  sc.g_im.resize(planes * n);
  for (int m = -mspan; m <= mspan; ++m) {
    double* gr = sc.g_re.data() + static_cast<std::size_t>(m + mspan) * n;
    double* gi = sc.g_im.data() + static_cast<std::size_t>(m + mspan) * n;
    const double shift = static_cast<double>(m) * w0_;
    for (std::size_t i = 0; i < n; ++i) {
      sc.im_shift[i] = sc.s_im[i] + shift;
    }
    batch_rational(hlf_num_.data(), hlf_num_.size(), hlf_den_.data(),
                   hlf_den_.size(), sc.s_re.data(), sc.im_shift.data(), n,
                   gr, gi, sc.den_re.data(), sc.den_im.data());
    if (shape_ == PfdShape::kZeroOrderHold) {
      // g / (s_m T); the denominator planes are free once batch_rational
      // has returned.
      for (std::size_t i = 0; i < n; ++i) {
        sc.den_re[i] = sc.s_re[i] * t_;
        sc.den_im[i] = sc.im_shift[i] * t_;
      }
      divide_planes(gr, gi, sc.den_re.data(), sc.den_im.data(), n,
                    [&](std::size_t i, cplx g) {
                      const cplx sm{sc.s_re[i], sc.im_shift[i]};
                      HTMPLL_REQUIRE(std::abs(sm) > 0.0,
                                     "ZOH shape evaluated on a harmonic of "
                                     "w0; evaluate off the harmonic grid");
                      return g / (sm * t_);
                    });
    }
  }
}

void EvalPlan::closed_loop_block(std::size_t n, int mspan, int band,
                                 Scratch& sc) const {
  // Numerator pre * sum_k v_k g_{band-k} * w0/(2 pi), channel-outer in
  // real arithmetic: the std::complex products' operations without
  // their NaN-recovery branches, so the loops vectorize.
  std::fill_n(sc.num_re.data(), n, 0.0);
  std::fill_n(sc.num_im.data(), n, 0.0);
  for (const ChannelWeight& ch : channels_) {
    const int m = band - ch.k;  // |m| <= mspan by table construction
    const std::size_t base = static_cast<std::size_t>(m + mspan) * n;
    const double* gr = sc.g_re.data() + base;
    const double* gi = sc.g_im.data() + base;
    const double vr = ch.v.real();
    const double vi = ch.v.imag();
    for (std::size_t i = 0; i < n; ++i) {
      sc.num_re[i] += vr * gr[i] - vi * gi[i];
      sc.num_im[i] += vr * gi[i] + vi * gr[i];
    }
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double pr = sc.pre[i].real();
    const double pi = sc.pre[i].imag();
    const double ar = sc.num_re[i];
    const double ai = sc.num_im[i];
    sc.num_re[i] = (pr * ar - pi * ai) * front_;
    sc.num_im[i] = (pr * ai + pi * ar) * front_;
  }
  // Denominator s_n (1 + lambda), s_n = s + j band w0: one quotient per
  // point instead of two.
  const double shift = static_cast<double>(band) * w0_;
  for (std::size_t i = 0; i < n; ++i) {
    const double sr = sc.s_re[i];
    const double si = sc.s_im[i] + shift;
    const double lr = 1.0 + sc.lam[i].real();
    const double li = sc.lam[i].imag();
    sc.den_re[i] = sr * lr - si * li;
    sc.den_im[i] = sr * li + si * lr;
  }
  divide_planes(sc.num_re.data(), sc.num_im.data(), sc.den_re.data(),
                sc.den_im.data(), n, [&](std::size_t i, cplx num) {
                  const cplx sn{sc.s_re[i], sc.s_im[i] + shift};
                  HTMPLL_REQUIRE(std::abs(sn) > 0.0,
                                 "V~ evaluated on an integrator pole s = "
                                 "-j n w0");
                  return num / sn / (1.0 + sc.lam[i]);
                });
}

CVector EvalPlan::lambda_grid(const CVector& s_grid) const {
  HTMPLL_TRACE_SPAN("core.plan_grid");
  plan_points_counter().add(s_grid.size());
  CVector out(s_grid.size());
  ThreadPool::global().for_each_chunk(
      s_grid.size(), kBlock, [&](std::size_t b, std::size_t e) {
        Scratch& sc = thread_scratch();
        const std::size_t n = e - b;
        load_block(s_grid.data() + b, n, sc);
        prefactor_block(n, sc);
        exact_lambda_block(n, sc);
        std::copy_n(sc.lam.data(), n, out.data() + b);
      });
  return out;
}

CVector EvalPlan::lambda_derivative_grid(const CVector& s_grid) const {
  HTMPLL_ASSERT(supports_derivative());
  HTMPLL_TRACE_SPAN("core.plan_grid");
  plan_points_counter().add(s_grid.size());
  const bool zoh = shape_ == PfdShape::kZeroOrderHold;
  CVector out(s_grid.size());
  ThreadPool::global().for_each_chunk(
      s_grid.size(), kBlock, [&](std::size_t b, std::size_t e) {
        Scratch& sc = thread_scratch();
        const std::size_t n = e - b;
        load_block(s_grid.data() + b, n, sc);
        std::fill_n(sc.dacc_re.data(), n, 0.0);
        std::fill_n(sc.dacc_im.data(), n, 0.0);
        for (const PoleSumTerm& term : deriv_terms_) {
          accumulate_pole_sums(term, c_, sc.s_re.data(), sc.s_im.data(),
                               sc.e_re.data(), sc.e_im.data(), n,
                               sc.dacc_re.data(), sc.dacc_im.data());
        }
        if (!zoh) {
          for (std::size_t i = 0; i < n; ++i) {
            out[b + i] = cplx{sc.dacc_re[i], sc.dacc_im[i]};
          }
          return;
        }
        // Product rule: lambda = (1 - e^{-sT}) acc, so
        // lambda' = T e^{-sT} acc + (1 - e^{-sT}) acc'.
        std::fill_n(sc.acc_re.data(), n, 0.0);
        std::fill_n(sc.acc_im.data(), n, 0.0);
        for (const PoleSumTerm& term : exact_terms_) {
          accumulate_pole_sums(term, c_, sc.s_re.data(), sc.s_im.data(),
                               sc.e_re.data(), sc.e_im.data(), n,
                               sc.acc_re.data(), sc.acc_im.data());
        }
        prefactor_block(n, sc);
        for (std::size_t i = 0; i < n; ++i) {
          const cplx es{sc.e_re[i], sc.e_im[i]};
          const cplx acc{sc.acc_re[i], sc.acc_im[i]};
          const cplx dacc{sc.dacc_re[i], sc.dacc_im[i]};
          out[b + i] = t_ * es * acc + sc.pre[i] * dacc;
        }
      });
  return out;
}

CVector EvalPlan::lti_closed_loop_grid(const CVector& s_grid) const {
  HTMPLL_TRACE_SPAN("core.plan_grid");
  plan_points_counter().add(s_grid.size());
  CVector out(s_grid.size());
  ThreadPool::global().for_each_chunk(
      s_grid.size(), kBlock, [&](std::size_t b, std::size_t e) {
        Scratch& sc = thread_scratch();
        const std::size_t n = e - b;
        sc.resize_point_planes(n);
        split_planes(s_grid.data() + b, n, sc.s_re.data(), sc.s_im.data());
        batch_rational(lti_num_.data(), lti_num_.size(), lti_den_.data(),
                       lti_den_.size(), sc.s_re.data(), sc.s_im.data(), n,
                       sc.num_re.data(), sc.num_im.data(), sc.den_re.data(),
                       sc.den_im.data());
        join_planes(sc.num_re.data(), sc.num_im.data(), n, out.data() + b);
      });
  return out;
}

std::vector<CVector> EvalPlan::closed_loop_grid(
    const std::vector<int>& bands, const CVector& s_grid) const {
  HTMPLL_TRACE_SPAN("core.plan_grid");
  plan_points_counter().add(s_grid.size());
  int band_max = 0;
  for (int band : bands) band_max = std::max(band_max, std::abs(band));
  const int mspan = band_max + hmax_;
  std::vector<CVector> out(bands.size(), CVector(s_grid.size()));
  ThreadPool::global().for_each_chunk(
      s_grid.size(), kBlock, [&](std::size_t b, std::size_t e) {
        Scratch& sc = thread_scratch();
        const std::size_t n = e - b;
        load_block(s_grid.data() + b, n, sc);
        prefactor_block(n, sc);
        gains_block(n, mspan, sc);
        exact_lambda_block(n, sc);
        for (std::size_t bi = 0; bi < bands.size(); ++bi) {
          closed_loop_block(n, mspan, bands[bi], sc);
          join_planes(sc.num_re.data(), sc.num_im.data(), n,
                      out[bi].data() + b);
        }
      });
  return out;
}

}  // namespace htmpll
