#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <numbers>
#include <stdexcept>
#include <utility>
#include <vector>

#include "htmpll/core/pole_search.hpp"
#include "htmpll/core/sampling_pll.hpp"
#include "htmpll/core/stability.hpp"
#include "htmpll/design/design.hpp"
#include "htmpll/design/design_sweep.hpp"
#include "htmpll/noise/noise.hpp"
#include "htmpll/obs/trace.hpp"
#include "htmpll/timedomain/montecarlo.hpp"
#include "htmpll/timedomain/probe.hpp"
#include "htmpll/util/grid.hpp"

namespace perfbench {

namespace {

using namespace htmpll;

constexpr double kW0 = 2.0 * std::numbers::pi;  // T = 1
const cplx kJ{0.0, 1.0};

// ---- seeded input generation ------------------------------------------

/// splitmix64 stream: the only source of randomness in the inputs.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1).
  double uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * uniform(); }

 private:
  std::uint64_t state_;
};

/// n points covering [lo, hi], one per equal stratum (geometric strata
/// when `log`), each drawn from the middle `spread` share of its
/// stratum.  Stratifying keeps the amount of work nearly the same for
/// every seed while still giving each seed its own inputs.
std::vector<double> stratified(Rng& rng, double lo, double hi, std::size_t n,
                               double spread, bool log) {
  std::vector<double> out(n);
  const double a = log ? std::log(lo) : lo;
  const double b = log ? std::log(hi) : hi;
  const double width = (b - a) / static_cast<double>(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double u = 0.5 + spread * (rng.uniform() - 0.5);
    const double x = a + width * (static_cast<double>(i) + u);
    out[i] = log ? std::exp(x) : x;
  }
  return out;
}

/// Fisher-Yates shuffle driven by the input stream.
template <class T>
void shuffle(Rng& rng, std::vector<T>& v) {
  for (std::size_t i = v.size(); i > 1; --i) {
    const std::size_t k = static_cast<std::size_t>(rng.next() % i);
    std::swap(v[i - 1], v[k]);
  }
}

// ---- output hashing and checks ----------------------------------------

/// FNV-1a over the bit patterns of every output value.
class Hasher {
 public:
  void add(double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    add_bits(bits);
  }
  void add(cplx v) {
    add(v.real());
    add(v.imag());
  }
  void add(bool v) { add_bits(v ? 1 : 0); }
  void add(std::size_t v) { add_bits(static_cast<std::uint64_t>(v)); }
  void add(int v) { add_bits(static_cast<std::uint64_t>(v)); }
  template <class T>
  void add(const std::vector<T>& v) {
    add(v.size());
    for (const T& x : v) add(x);
  }
  std::uint64_t value() const { return h_; }

 private:
  void add_bits(std::uint64_t bits) {
    for (int i = 0; i < 8; ++i) {
      h_ ^= (bits >> (8 * i)) & 0xffu;
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

double rel_err(cplx got, cplx want) {
  return std::abs(got - want) / std::abs(want);
}

/// Accumulates a pass verdict: the first failed check and the worst error.
class Verdict {
 public:
  void expect(bool cond, const std::string& what) {
    if (!cond && out.ok) {
      out.ok = false;
      out.failure = what;
    }
  }
  /// Relative error against the reference; fails above `tol`.
  void compare(cplx got, cplx want, double tol, const std::string& what) {
    const double e = rel_err(got, want);
    out.max_rel_err = std::max(out.max_rel_err, e);
    expect(e <= tol, what + " rel err " + std::to_string(e));
  }
  PassCheck out;
};

void add_poles(Hasher& h, const std::vector<ClosedLoopPole>& poles) {
  h.add(poles.size());
  for (const ClosedLoopPole& p : poles) {
    h.add(p.s);
    h.add(p.residual);
    h.add(p.iterations);
    h.add(p.converged);
  }
}

void add_margins(Hasher& h, const EffectiveMargins& m) {
  h.add(m.lti_crossover);
  h.add(m.lti_phase_margin_deg);
  h.add(m.lti_found);
  h.add(m.eff_crossover);
  h.add(m.eff_phase_margin_deg);
  h.add(m.eff_found);
}

bool poles_ok(const std::vector<ClosedLoopPole>& poles) {
  return std::all_of(poles.begin(), poles.end(), [](const ClosedLoopPole& p) {
    return p.converged && std::isfinite(p.s.real()) &&
           std::isfinite(p.s.imag());
  });
}

// ---- fd_design ----------------------------------------------------------

/// The frequency-domain study a loop designer runs: dense transfer and
/// noise grids over six designs, a design-space map and a jitter-optimal
/// bandwidth search.
class FdDesign final : public Workload {
 public:
  static constexpr std::size_t kDesigns = 6;
  static constexpr std::size_t kGridPoints = 4096;
  static constexpr std::size_t kPsdPoints = 2048;
  static constexpr std::size_t kCheckStride = 4;
  static constexpr int kFolds = 16;
  inline static const std::vector<int> kBands = {-2, -1, 0, 1, 2};

  explicit FdDesign(std::uint64_t seed) {
    Rng rng(seed);
    const std::vector<double> ratios =
        stratified(rng, 0.005, 0.27, kDesigns, 0.5, true);
    std::vector<double> gammas = stratified(rng, 2.0, 6.0, kDesigns, 0.5,
                                            false);
    shuffle(rng, gammas);
    for (std::size_t d = 0; d < kDesigns; ++d) {
      Design in;
      in.params = make_typical_loop(ratios[d] * kW0, kW0, gammas[d]);
      // Alternate shapes so every seed has three of each.
      in.opts.pfd_shape =
          d % 2 == 0 ? PfdShape::kImpulse : PfdShape::kZeroOrderHold;
      const double w_ug = ratios[d] * kW0;
      const std::vector<double> w =
          logspace(1e-2 * w_ug, std::min(1e2 * w_ug, 0.49 * kW0), kGridPoints);
      in.s_grid.resize(w.size());
      for (std::size_t i = 0; i < w.size(); ++i) in.s_grid[i] = kJ * w[i];
      // Every kCheckStride-th point from a seeded offset.
      for (std::size_t i = rng.next() % kCheckStride; i < kGridPoints;
           i += kCheckStride) {
        in.check_idx.push_back(i);
      }
      designs_.push_back(std::move(in));
    }
    psd_grid_ = logspace(1e-3 * kW0, 0.49 * kW0, kPsdPoints);
    const double ref_white = rng.uniform(0.5e-14, 2e-14);
    s_ref_ = PowerLawPsd{ref_white, 10.0 * ref_white, 0.0};
    s_vco_ = PowerLawPsd{0.0, 0.0, rng.uniform(0.5e-8, 2e-8)};
    s_icp_ = PowerLawPsd{rng.uniform(0.5e-20, 2e-20), 1e-21, 0.0};

    map_spec_.w0 = kW0;
    map_spec_.target_w_ug = 0.1 * kW0;
    map_spec_.target_pm_deg = typical_loop_lti_phase_margin_deg();
    map_ratios_ = stratified(rng, 0.005, 0.27, 24, 0.5, true);
    map_gammas_ = stratified(rng, 2.0, 6.0, 4, 0.5, false);

    jitter_spec_.w0 = 2.0 * std::numbers::pi * 10e6;
    const double jw = 1e-24;
    jitter_spec_.s_ref = PowerLawPsd{jw, 0.0, 0.0};
    const double corner = rng.uniform(0.25, 0.35) * jitter_spec_.w0;
    jitter_spec_.s_vco = PowerLawPsd{0.0, 0.0, jw * corner * corner};
    jitter_spec_.gamma = rng.uniform(3.5, 4.5);
  }

  void run_pass() override {
    out_.clear();
    out_.reserve(kDesigns);
    models_.clear();
    models_.reserve(kDesigns);
    for (const Design& in : designs_) {
      DesignOutputs o;
      {
        HTMPLL_TRACE_SPAN("bench.core.model_build");
        models_.emplace_back(in.params, HarmonicCoefficients(cplx{1.0}),
                             in.opts);
      }
      const SamplingPllModel& model = models_.back();
      {
        HTMPLL_TRACE_SPAN("bench.core.grid");
        o.h00 = model.baseband_transfer_grid(in.s_grid);
        o.lti = model.lti_baseband_transfer_grid(in.s_grid);
        o.bands = model.closed_loop_grid(kBands, in.s_grid);
      }
      if (in.opts.pfd_shape == PfdShape::kImpulse) {
        HTMPLL_TRACE_SPAN("bench.core.poles");
        o.poles = closed_loop_poles(model);
      }
      {
        HTMPLL_TRACE_SPAN("bench.core.margins");
        o.margins = effective_margins(model);
      }
      {
        HTMPLL_TRACE_SPAN("bench.noise.psd_grid");
        const NoiseAnalysis noise(model, kFolds);
        o.psd = noise.output_psd_grid(psd_grid_, s_ref_, s_vco_, s_icp_);
        o.jitter = noise.integrated_jitter(1e-3 * kW0, 0.49 * kW0, s_ref_,
                                           s_vco_, s_icp_);
      }
      out_.push_back(std::move(o));
    }
    {
      HTMPLL_TRACE_SPAN("bench.design.map");
      map_ = design_space_map(map_spec_, map_ratios_, map_gammas_);
    }
    {
      HTMPLL_TRACE_SPAN("bench.design.jitter_opt");
      jitter_opt_ = optimize_bandwidth_for_jitter(jitter_spec_);
    }
  }

  PassCheck check(bool reference) const override {
    Verdict v;
    Hasher h;
    for (std::size_t d = 0; d < kDesigns; ++d) {
      const DesignOutputs& o = out_[d];
      const std::string tag = "design " + std::to_string(d);
      if (reference) compare_with_pointwise(v, d, tag);
      v.expect(poles_ok(o.poles), tag + " pole not converged");
      v.expect(std::all_of(o.psd.begin(), o.psd.end(),
                           [](double x) { return std::isfinite(x) && x > 0; }),
               tag + " non-positive output PSD");
      v.expect(std::isfinite(o.jitter) && o.jitter > 0.0,
               tag + " integrated jitter not positive");
      h.add(o.h00);
      h.add(o.lti);
      for (const CVector& band : o.bands) h.add(band);
      add_poles(h, o.poles);
      add_margins(h, o.margins);
      h.add(o.psd);
      h.add(o.jitter);
    }
    v.expect(map_.points.size() == map_ratios_.size() * map_gammas_.size(),
             "design map size");
    for (const DesignPoint& p : map_.points) {
      v.expect(poles_ok(p.poles), "design map pole not converged");
      h.add(p.ratio);
      h.add(p.gamma);
      add_margins(h, p.design.margins);
      h.add(p.design.z_domain_stable);
      h.add(p.half_rate_lambda);
      h.add(p.half_rate_stable);
      add_poles(h, p.poles);
    }
    v.expect(std::isfinite(jitter_opt_.rms_tv) && jitter_opt_.rms_tv > 0.0 &&
                 jitter_opt_.penalty >= 1.0 - 1e-9,
             "jitter optimum");
    h.add(jitter_opt_.w_ug_tv);
    h.add(jitter_opt_.rms_tv);
    h.add(jitter_opt_.w_ug_lti);
    h.add(jitter_opt_.rms_at_lti_pick);
    v.out.hash = h.value();
    return v.out;
  }

  PassWork work() const override {
    PassWork w;
    w.grid_points = static_cast<double>(kDesigns * kGridPoints * 3);
    // `iterations` counts from 0 (converged on the first step).
    const auto add = [&w](const std::vector<ClosedLoopPole>& poles) {
      for (const ClosedLoopPole& p : poles) w.pole_newton_iters += p.iterations + 1;
    };
    for (const DesignOutputs& o : out_) add(o.poles);
    for (const DesignPoint& p : map_.points) add(p.poles);
    return w;
  }

 private:
  struct Design {
    PllParameters params{};
    SamplingPllOptions opts;
    CVector s_grid;
    std::vector<std::size_t> check_idx;
  };
  /// Grid outputs of design `d` against the pointwise public calls at its
  /// check points; A/(1 + lambda) (eq. 38) brings in lambda for the
  /// impulse shape.
  void compare_with_pointwise(Verdict& v, std::size_t d,
                              const std::string& tag) const {
    const Design& in = designs_[d];
    const DesignOutputs& o = out_[d];
    const SamplingPllModel& model = models_[d];
    for (std::size_t i : in.check_idx) {
      const cplx s = in.s_grid[i];
      v.compare(o.h00[i], model.baseband_transfer(s), 1e-10,
                tag + " baseband_transfer_grid");
      if (in.opts.pfd_shape == PfdShape::kImpulse) {
        v.compare(o.h00[i],
                  model.open_loop_gain()(s) / (1.0 + model.lambda(s)), 1e-10,
                  tag + " H00 vs A/(1+lambda)");
      }
      v.compare(o.lti[i], model.lti_baseband_transfer(s), 1e-10,
                tag + " lti_baseband_transfer_grid");
      for (std::size_t b = 0; b < kBands.size(); ++b) {
        v.compare(o.bands[b][i], model.closed_loop(kBands[b], s), 1e-10,
                  tag + " closed_loop_grid band " + std::to_string(kBands[b]));
      }
    }
  }

  struct DesignOutputs {
    CVector h00, lti;
    std::vector<CVector> bands;
    std::vector<ClosedLoopPole> poles;
    EffectiveMargins margins;
    std::vector<double> psd;
    double jitter = 0.0;
  };

  std::vector<Design> designs_;
  std::vector<double> psd_grid_;
  PowerLawPsd s_ref_, s_vco_, s_icp_;
  DesignSpec map_spec_{};
  std::vector<double> map_ratios_, map_gammas_;
  JitterOptimizationSpec jitter_spec_;

  std::vector<SamplingPllModel> models_;
  std::vector<DesignOutputs> out_;
  DesignSpaceMap map_;
  JitterOptimizationResult jitter_opt_;
};

// ---- probe_verify -------------------------------------------------------

/// The paper's verification path: cold transient probes at the Fig. 6
/// loops plus the sideband probes of Fig. 2.
class ProbeVerify final : public Workload {
 public:
  /// The paper's "within 2 %" claim at its own Fig. 6 marks.
  static constexpr double kPaperTol = 0.02;
  /// Seeded marks: the same claim with room for the probe's windowed-DFT
  /// error, which crosses 2 % by ~1e-4 between 2.0 and 2.2 w_UG at
  /// w_UG/w0 = 0.2.
  static constexpr double kSeededTol = 0.025;
  /// Sideband magnitudes (the band-transfer tests' tolerance).
  static constexpr double kBandTol = 0.10;

  explicit ProbeVerify(std::uint64_t seed) {
    Rng rng(seed);
    opts_.settle_periods = 400.0;
    opts_.measure_periods = 24;
    for (double ratio : {0.01, 0.1, 0.2}) {
      Loop loop;
      loop.params = make_typical_loop(ratio * kW0, kW0);
      // The Fig. 6 marks, in units of w_UG.
      std::vector<double> marks = ratio >= 0.1
                                      ? std::vector<double>{0.3, 1.0, 2.0}
                                      : std::vector<double>{0.3, 1.0};
      loop.anchors = marks.size();
      if (ratio >= 0.1) {
        // Two seeded marks in [0.3, 2.4] w_UG whose modulation periods
        // sum to a constant, so a probe pass simulates the same number
        // of periods for every seed.  (At w_UG/w0 = 0.01 one seeded mark
        // alone would swing the pass cost by up to 4x.)
        const double p_lo = 1.0 / 2.4, p_hi = 1.0 / 0.3;
        const double p = rng.uniform(p_lo, p_hi);
        marks.push_back(1.0 / p);
        marks.push_back(1.0 / (p_lo + p_hi - p));
      }
      const SamplingPllModel model(loop.params);
      for (double k : marks) {
        const double w = std::min(k * ratio * kW0, 0.49 * kW0);
        loop.omegas.push_back(w);
        loop.reference.push_back(model.baseband_transfer(kJ * w));
      }
      loops_.push_back(std::move(loop));
    }
    band_params_ = make_typical_loop(0.2 * kW0, kW0);
    const SamplingPllModel band_model(band_params_);
    // One modulation frequency per band in [0.08, 0.18] w0, stratified in
    // modulation period (which sets the probe cost).
    std::vector<double> periods =
        stratified(rng, 1.0 / 0.18, 1.0 / 0.08, 5, 0.5, false);
    shuffle(rng, periods);
    for (int n = -2; n <= 2; ++n) {
      const double wm = kW0 / periods[static_cast<std::size_t>(n + 2)];
      band_points_.push_back({n, wm});
      band_reference_.push_back(band_model.closed_loop(n, kJ * wm));
    }
  }

  void run_pass() override {
    meas_.clear();
    for (const Loop& loop : loops_) {
      HTMPLL_TRACE_SPAN("bench.timedomain.probe");
      meas_.push_back(
          measure_baseband_transfer_many(loop.params, loop.omegas, opts_));
    }
    HTMPLL_TRACE_SPAN("bench.timedomain.probe");
    band_meas_ = measure_band_transfer_many(band_params_, band_points_, opts_);
  }

  PassCheck check(bool /*reference*/) const override {
    Verdict v;
    Hasher h;
    for (std::size_t l = 0; l < loops_.size(); ++l) {
      const Loop& loop = loops_[l];
      for (std::size_t i = 0; i < loop.omegas.size(); ++i) {
        const bool anchor = i < loop.anchors;
        v.compare(meas_[l][i].value, loop.reference[i],
                  anchor ? kPaperTol : kSeededTol,
                  std::string(anchor ? "Fig. 6 mark" : "seeded mark") +
                      " loop " + std::to_string(l));
        h.add(meas_[l][i].value);
        h.add(meas_[l][i].simulated_time);
        h.add(meas_[l][i].events);
      }
    }
    for (std::size_t i = 0; i < band_points_.size(); ++i) {
      const double want = std::abs(band_reference_[i]);
      const double e = std::abs(std::abs(band_meas_[i].value) - want) / want;
      v.expect(e <= kBandTol, "band " + std::to_string(band_points_[i].band) +
                                  " magnitude rel err " + std::to_string(e));
      h.add(band_meas_[i].value);
      h.add(band_meas_[i].events);
    }
    v.out.hash = h.value();
    return v.out;
  }

  PassWork work() const override {
    PassWork w;
    for (const auto& batch : meas_) {
      for (const TransferMeasurement& m : batch) {
        w.probe_points += 1;
        w.sim_periods += m.simulated_time / (2.0 * std::numbers::pi / kW0);
      }
    }
    for (const TransferMeasurement& m : band_meas_) {
      w.probe_points += 1;
      w.sim_periods += m.simulated_time / (2.0 * std::numbers::pi / kW0);
    }
    return w;
  }

 private:
  struct Loop {
    PllParameters params{};
    std::vector<double> omegas;
    CVector reference;        ///< eq. 38 at each mark
    std::size_t anchors = 0;  ///< leading marks that are the paper's own
  };

  ProbeOptions opts_;
  std::vector<Loop> loops_;
  PllParameters band_params_{};
  std::vector<BandProbePoint> band_points_;
  CVector band_reference_;

  std::vector<std::vector<TransferMeasurement>> meas_;
  std::vector<TransferMeasurement> band_meas_;
};

// ---- mc_ensemble --------------------------------------------------------

/// The stochastic workload: a held-noise ensemble, an acquisition batch
/// and a step-response batch -- many short independent transients.
class McEnsemble final : public Workload {
 public:
  static constexpr std::size_t kMembers = 64;
  static constexpr std::size_t kOffsets = 32;
  static constexpr std::size_t kStepLoops = 8;
  static constexpr std::size_t kStepSamples = 160;
  /// A step response counts as settled when its last quarter stays
  /// within 1 % of the final value.
  static constexpr double kStepTol = 0.01;

  explicit McEnsemble(std::uint64_t seed) {
    Rng rng(seed);
    // Kept below w_UG/w0 = 0.1: just above it the event loop's VCO-edge
    // solve falls back to bisection and the ensemble costs 6-8x more, a
    // cliff a seeded loop must not straddle.
    loop_ = make_typical_loop(rng.uniform(0.05, 0.08) * kW0, kW0);
    sigma_ = 1e-4 * loop_.icp;
    base_seed_ = rng.next();
    noise_opts_.settle_periods = 100.0;
    noise_opts_.measure_periods = 1000.0;

    std::vector<double> mags = stratified(rng, 1e-3, 3e-2, kOffsets, 0.5, true);
    for (double m : mags) {
      cases_.push_back({loop_, rng.uniform() < 0.5 ? -m : m});
    }
    shuffle(rng, cases_);

    // A bandwidth ladder with a small seeded jitter: the worst residual
    // depends exponentially on the slowest loop's bandwidth.
    for (double r : stratified(rng, 0.05, 0.2, kStepLoops, 0.02, true)) {
      step_loops_.push_back(make_typical_loop(r * kW0, kW0));
    }
    shuffle(rng, step_loops_);
  }

  void run_pass() override {
    {
      HTMPLL_TRACE_SPAN("bench.timedomain.mc_noise");
      noise_ = run_noise_ensemble(loop_, sigma_, base_seed_, kMembers,
                                  noise_opts_);
    }
    {
      HTMPLL_TRACE_SPAN("bench.timedomain.acquisition");
      acq_ = acquisition_periods(cases_);
    }
    {
      HTMPLL_TRACE_SPAN("bench.timedomain.step_batch");
      steps_ = step_response_batch(step_loops_, kStepSamples, 1e-3);
    }
  }

  PassCheck check(bool /*reference*/) const override {
    Verdict v;
    Hasher h;
    for (const NoiseRunStats& s : noise_) {
      v.expect(std::isfinite(s.theta_mean) && std::isfinite(s.theta_rms) &&
                   s.theta_rms > 0.0 && s.events > 0,
               "noise member statistics");
      h.add(s.theta_mean);
      h.add(s.theta_rms);
      h.add(s.theta_peak);
      h.add(s.events);
    }
    for (double p : acq_) v.expect(p >= 0.0, "acquisition did not lock");
    h.add(acq_);
    for (const std::vector<double>& y : steps_) {
      // Settling envelope: worst |y - 1| over the last quarter.
      double e = 0.0;
      for (std::size_t n = y.size() - y.size() / 4; n < y.size(); ++n) {
        e = std::max(e, std::abs(y[n] - 1.0));
      }
      v.out.max_rel_err = std::max(v.out.max_rel_err, e);
      v.expect(e <= kStepTol, "step response final error " +
                                  std::to_string(e));
      h.add(y);
    }
    v.out.hash = h.value();
    return v.out;
  }

  PassWork work() const override {
    PassWork w;
    w.mc_members = static_cast<double>(kMembers);
    w.sim_periods = static_cast<double>(kMembers) *
                        (noise_opts_.settle_periods +
                         noise_opts_.measure_periods) +
                    static_cast<double>(kStepLoops * kStepSamples);
    for (double p : acq_) w.sim_periods += std::max(p, 0.0);
    return w;
  }

 private:
  PllParameters loop_{};
  double sigma_ = 0.0;
  std::uint64_t base_seed_ = 0;
  NoiseEnsembleOptions noise_opts_;
  std::vector<AcquisitionCase> cases_;
  std::vector<PllParameters> step_loops_;

  std::vector<NoiseRunStats> noise_;
  std::vector<double> acq_;
  std::vector<std::vector<double>> steps_;
};

}  // namespace

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        std::uint64_t seed) {
  if (name == "fd_design") return std::make_unique<FdDesign>(seed);
  if (name == "probe_verify") return std::make_unique<ProbeVerify>(seed);
  if (name == "mc_ensemble") return std::make_unique<McEnsemble>(seed);
  throw std::invalid_argument("unknown workload: " + name);
}

}  // namespace perfbench
