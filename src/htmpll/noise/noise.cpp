#include "htmpll/noise/noise.hpp"

#include <cmath>

#include "htmpll/linalg/batch_kernels.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/obs/trace.hpp"
#include "htmpll/util/check.hpp"
#include "htmpll/util/grid.hpp"

namespace htmpll {

namespace {

obs::Counter& fold_terms_counter() {
  static obs::Counter& ctr = obs::counter("noise.fold_terms");
  return ctr;
}

void require_grid(const std::vector<double>& w_grid) {
  HTMPLL_REQUIRE(!w_grid.empty(), "PSD grid must hold at least one point");
}

void require_psd(const PsdFunction& f, const char* name) {
  HTMPLL_REQUIRE(static_cast<bool>(f),
                 std::string("PSD function '") + name + "' is null");
}

void require_power_law(const PowerLawPsd& p) {
  const auto ok = [](double c) { return std::isfinite(c) && c >= 0.0; };
  HTMPLL_REQUIRE(ok(p.white) && ok(p.flicker) && ok(p.walk),
                 "power-law PSD coefficients must be finite and "
                 "non-negative");
}

/// psd[i] = f(|w[i] + shift|) for every lane off DC.  DC lanes hold no
/// PSD value (inf/NaN or unwritten) and the fold loops skip them.  A
/// PowerLawPsd held by `f` (the PSD type of every driver) is evaluated
/// inline with the expression of PowerLawPsd::operator(), so the values
/// are bitwise those of the per-point call without its std::function
/// dispatch, on every lane so the loop vectorizes; any other callable
/// is called per point, off DC only.
void fold_psd_plane(const PsdFunction& f, const double* w, double shift,
                    std::size_t n, double* psd) {
  if (const PowerLawPsd* p = f.target<PowerLawPsd>()) {
    require_power_law(*p);
    const double white = p->white;
    const double flicker = p->flicker;
    const double walk = p->walk;
    for (std::size_t i = 0; i < n; ++i) {
      const double wm = std::abs(w[i] + shift);
      psd[i] = white + flicker / wm + walk / (wm * wm);
    }
    return;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const double wm = std::abs(w[i] + shift);
    if (wm == 0.0) continue;
    psd[i] = f(wm);
  }
}

CVector jw_grid(const std::vector<double>& w_grid) {
  CVector s(w_grid.size());
  for (std::size_t i = 0; i < w_grid.size(); ++i) {
    s[i] = cplx{0.0, w_grid[i]};
  }
  return s;
}

bool all_real(const CVector& c) {
  for (const cplx& v : c) {
    if (v.imag() != 0.0) return false;
  }
  return !c.empty();
}

// Split ascending real coefficients into even/odd powers so that
// P(j x) = E(-x^2) + j x O(-x^2) with E(y) = sum_k c_{2k} y^k and
// O(y) = sum_k c_{2k+1} y^k -- two half-degree real Horner chains
// instead of one complex one.
void even_odd_split(const CVector& c, std::vector<double>& even,
                    std::vector<double>& odd) {
  even.clear();
  odd.clear();
  for (std::size_t k = 0; k < c.size(); ++k) {
    (k % 2 == 0 ? even : odd).push_back(c[k].real());
  }
}

}  // namespace

double PowerLawPsd::operator()(double w) const {
  require_power_law(*this);
  const double aw = std::abs(w);
  HTMPLL_REQUIRE(aw > 0.0, "power-law PSD evaluated at DC");
  return white + flicker / aw + walk / (aw * aw);
}

NoiseAnalysis::NoiseAnalysis(const SamplingPllModel& model,
                             int fold_harmonics)
    : model_(model), fold_(fold_harmonics) {
  HTMPLL_REQUIRE(fold_harmonics >= 0,
                 "fold_harmonics must be >= 0 (zero keeps only the "
                 "unfolded m = 0 term)");
}

cplx NoiseAnalysis::reference_transfer(double w) const {
  return model_.baseband_transfer(cplx{0.0, w});
}

cplx NoiseAnalysis::vco_transfer(int m, double w) const {
  const cplx h00 = model_.baseband_transfer(cplx{0.0, w});
  return (m == 0 ? cplx{1.0} : cplx{0.0}) - h00;
}

cplx NoiseAnalysis::charge_pump_transfer(int m, double w) const {
  return charge_pump_transfer_impl(m, w, model_.closed_loop(0, cplx{0.0, w}));
}

cplx NoiseAnalysis::charge_pump_transfer_impl(int m, double w,
                                              cplx tracking) const {
  const cplx s{0.0, w};
  const double w0 = model_.w0();
  const cplx sm = s + cplx{0.0, static_cast<double>(m) * w0};
  const PllParameters& p = model_.parameters();
  // Current noise is injected at the filter INPUT: it sees the
  // impedance Z (and any extra loop dynamics), not Icp*Z -- the pump
  // current belongs to the PFD pulses only.  loop_filter_tf() is
  // Icp * Z * extras, so divide Icp back out.
  const cplx z_m = model_.loop_filter_tf()(sm) / p.icp;
  // General LPTV form with E = H_VCO Z_diag:
  //   T_{0,m} = Z(s_m) [ v_{-m}/s
  //                      - (V~_0/(1+lambda)) sum_k v_k/(s + j(m+k) w0) ]
  // (reduces to D_m (delta - H_00) for a DC-only ISF).
  const HarmonicCoefficients& isf = model_.isf();
  const cplx v_minus_m = p.kvco * isf[-m];
  cplx row_sum{0.0};
  for (int k = -isf.max_harmonic(); k <= isf.max_harmonic(); ++k) {
    const cplx v_k = p.kvco * isf[k];
    if (v_k == cplx{0.0}) continue;
    const cplx sn =
        s + cplx{0.0, static_cast<double>(m + k) * w0};
    row_sum += v_k / sn;
  }
  return z_m * (v_minus_m / s - tracking * row_sum);
}

double NoiseAnalysis::output_psd_from_reference(
    double w, const PsdFunction& s_ref) const {
  // Reference noise is a baseband quantity in the paper's convention;
  // only H_{0,0} applies.
  return std::norm(reference_transfer(w)) * s_ref(std::abs(w));
}

double NoiseAnalysis::output_psd_from_vco(double w,
                                          const PsdFunction& s_vco) const {
  const double w0 = model_.w0();
  // vco_transfer(m, w) = delta_{m0} - H_00(jw): hoist the (expensive)
  // H_00 evaluation out of the folding loop -- it does not depend on m.
  const cplx h00 = model_.baseband_transfer(cplx{0.0, w});
  double acc = 0.0;
  for (int m = -fold_; m <= fold_; ++m) {
    const double wm = std::abs(w + static_cast<double>(m) * w0);
    if (wm == 0.0) continue;
    const cplx t = (m == 0 ? cplx{1.0} : cplx{0.0}) - h00;
    acc += std::norm(t) * s_vco(wm);
  }
  return acc;
}

double NoiseAnalysis::output_psd_from_charge_pump(
    double w, const PsdFunction& s_icp) const {
  const double w0 = model_.w0();
  const cplx tracking = model_.closed_loop(0, cplx{0.0, w});
  double acc = 0.0;
  for (int m = -fold_; m <= fold_; ++m) {
    const double wm = std::abs(w + static_cast<double>(m) * w0);
    if (wm == 0.0) continue;
    acc += std::norm(charge_pump_transfer_impl(m, w, tracking)) * s_icp(wm);
  }
  return acc;
}

double NoiseAnalysis::output_psd_total(double w, const PsdFunction& s_ref,
                                       const PsdFunction& s_vco,
                                       const PsdFunction& s_icp) const {
  return output_psd_from_reference(w, s_ref) +
         output_psd_from_vco(w, s_vco) +
         output_psd_from_charge_pump(w, s_icp);
}

double NoiseAnalysis::integrated_rms(
    const std::function<double(double)>& s_out, double w_lo, double w_hi,
    std::size_t points) const {
  HTMPLL_REQUIRE(points >= 2, "quadrature needs at least two points");
  const std::vector<double> grid = logspace(w_lo, w_hi, points);
  std::vector<double> psd(grid.size());
  for (std::size_t i = 0; i < grid.size(); ++i) psd[i] = s_out(grid[i]);
  return trapezoid_rms(grid, psd);
}

// ---- batched grids ----------------------------------------------------

void NoiseAnalysis::psd_reference_into(const CVector& h00,
                                       const std::vector<double>& w_grid,
                                       const PsdFunction& s_ref,
                                       std::vector<double>& out) const {
  for (std::size_t i = 0; i < w_grid.size(); ++i) {
    out[i] += std::norm(h00[i]) * s_ref(std::abs(w_grid[i]));
  }
}

void NoiseAnalysis::psd_vco_into(const CVector& h00,
                                 const std::vector<double>& w_grid,
                                 const PsdFunction& s_vco,
                                 std::vector<double>& out) const {
  const double w0 = model_.w0();
  const std::size_t n = w_grid.size();
  // |delta_{m0} - H_00| takes only two values per grid point; hoist
  // both squared magnitudes out of the fold loop so the band sweep is
  // one multiply-add plus the PSD lookup per term.
  std::vector<double> gain_base(n), gain_fold(n), psd(n);
  for (std::size_t i = 0; i < n; ++i) {
    gain_base[i] = std::norm(cplx{1.0} - h00[i]);
    gain_fold[i] = std::norm(h00[i]);
  }
  for (int m = -fold_; m <= fold_; ++m) {
    const double shift = static_cast<double>(m) * w0;
    const double* gain = (m == 0 ? gain_base : gain_fold).data();
    fold_psd_plane(s_vco, w_grid.data(), shift, n, psd.data());
    // DC lanes add +0.0 instead of their term: out[i] is never -0.0,
    // so that is the skip, bit for bit, and the loop vectorizes.
    for (std::size_t i = 0; i < n; ++i) {
      const double term = gain[i] * psd[i];
      out[i] += w_grid[i] + shift == 0.0 ? 0.0 : term;
    }
    fold_terms_counter().add(n);
  }
}

void NoiseAnalysis::psd_charge_pump_into(const CVector& tracking,
                                         const std::vector<double>& w_grid,
                                         const PsdFunction& s_icp,
                                         std::vector<double>& out) const {
  const std::size_t n = w_grid.size();
  const double w0 = model_.w0();
  const PllParameters& p = model_.parameters();
  const RationalFunction& hlf = model_.loop_filter_tf();
  const CVector& num = hlf.num().coefficients();
  const CVector& den = hlf.den().coefficients();
  const HarmonicCoefficients& isf = model_.isf();
  const int jmax = isf.max_harmonic();

  // Per-band filter-impedance column Z(s + j m w0)/Icp, evaluated as
  // one batch_rational plane per fold harmonic; the expensive tracking
  // factor V~_0/(1+lambda) comes in precomputed and m-independent.
  //
  // On the jw axis every folding denominator s + j b w0 is purely
  // imaginary, so v/(s + j b w0) = (Im v)/x - j (Re v)/x with
  // x = w + b w0.  Each reciprocal plane is shared by every fold
  // harmonic whose ISF window b = m + k covers it, which turns the
  // per-point complex divisions of the pointwise loop into one real
  // reciprocal plane per band plus multiply-adds.
  const double inv_icp = 1.0 / p.icp;
  const int bmax = fold_ + jmax;
  std::vector<double> inv_band(static_cast<std::size_t>(2 * bmax + 1) * n);
  for (int b = -bmax; b <= bmax; ++b) {
    double* row = inv_band.data() + static_cast<std::size_t>(b + bmax) * n;
    const double shift = static_cast<double>(b) * w0;
    for (std::size_t i = 0; i < n; ++i) {
      row[i] = 1.0 / (w_grid[i] + shift);
    }
  }
  const double* inv_w =
      inv_band.data() + static_cast<std::size_t>(bmax) * n;  // 1/w plane

  // Tracking-weighted ISF taps g_k = (V~_0/(1+lambda)) (-j v_k), one
  // complex plane per nonzero tap, built once: the per-band row term
  // tracking * sum_k v_k/(s + j(m+k) w0) then reduces to real
  // multiply-adds  sum_k g_k[i] * inv_band[m+k][i].
  struct Tap {
    int k;
    std::vector<double> g_re, g_im;
  };
  std::vector<Tap> taps;
  for (int k = -jmax; k <= jmax; ++k) {
    const cplx v_k = p.kvco * isf[k];
    if (v_k == cplx{0.0}) continue;
    Tap tap;
    tap.k = k;
    tap.g_re.resize(n);
    tap.g_im.resize(n);
    const double a = v_k.real();
    const double b = v_k.imag();
    for (std::size_t i = 0; i < n; ++i) {
      const double tr = tracking[i].real();
      const double ti = tracking[i].imag();
      tap.g_re[i] = tr * b + ti * a;
      tap.g_im[i] = ti * b - tr * a;
    }
    taps.push_back(std::move(tap));
  }

  // The impedance column only enters the PSD through its squared
  // magnitude: |Z(s_m) B|^2 = |Z(s_m)|^2 |B|^2, so no complex division
  // is needed -- only |N(jx)|^2 / |D(jx)|^2, one real division per
  // point.  For real filter coefficients (the physical case) each
  // |P(jx)|^2 = E(-x^2)^2 + x^2 O(-x^2)^2 costs two half-degree real
  // Horner chains; otherwise fall back to the complex batch_rational
  // plane and take its magnitude.
  const bool real_tf = all_real(num) && all_real(den);
  std::vector<double> num_even, num_odd, den_even, den_odd;
  if (real_tf) {
    even_odd_split(num, num_even, num_odd);
    even_odd_split(den, den_even, den_odd);
  }
  const double inv_icp2 = inv_icp * inv_icp;

  std::vector<double> sm_re(n, 0.0), sm_im(n), z_re(n), z_im(n), t_re(n),
      t_im(n), z2(n), y_pl(n), ev_pl(n), od_pl(n), row_re(n), row_im(n),
      psd(n);
  // Coefficient-outer Horner pass over a whole plane: amortizes the
  // tiny-degree loop overhead and lets the compiler vectorize.
  const auto horner_plane = [&](const std::vector<double>& c, double* dst) {
    const double top = c.empty() ? 0.0 : c.back();
    for (std::size_t i = 0; i < n; ++i) dst[i] = top;
    for (std::size_t k = c.size() > 0 ? c.size() - 1 : 0; k-- > 0;) {
      const double ck = c[k];
      for (std::size_t i = 0; i < n; ++i) dst[i] = dst[i] * y_pl[i] + ck;
    }
  };
  for (int m = -fold_; m <= fold_; ++m) {
    const double shift = static_cast<double>(m) * w0;
    for (std::size_t i = 0; i < n; ++i) sm_im[i] = w_grid[i] + shift;
    if (real_tf) {
      for (std::size_t i = 0; i < n; ++i) y_pl[i] = -sm_im[i] * sm_im[i];
      horner_plane(num_even, ev_pl.data());
      horner_plane(num_odd, od_pl.data());
      for (std::size_t i = 0; i < n; ++i) {
        const double ni = sm_im[i] * od_pl[i];
        z_re[i] = ev_pl[i] * ev_pl[i] + ni * ni;  // |N(jx)|^2
      }
      horner_plane(den_even, ev_pl.data());
      horner_plane(den_odd, od_pl.data());
      for (std::size_t i = 0; i < n; ++i) {
        const double di = sm_im[i] * od_pl[i];
        z_im[i] = ev_pl[i] * ev_pl[i] + di * di;  // |D(jx)|^2
      }
      for (std::size_t i = 0; i < n; ++i) z2[i] = z_re[i] / z_im[i];
      for (std::size_t i = 0; i < n; ++i) {
        // Over/underflowed squared magnitudes: redo the point with the
        // scaling-safe complex evaluator.
        if (!std::isfinite(z2[i])) {
          z2[i] = std::norm(hlf(cplx{0.0, sm_im[i]}));
        }
      }
    } else {
      batch_rational(num.data(), num.size(), den.data(), den.size(),
                     sm_re.data(), sm_im.data(), n, z_re.data(),
                     z_im.data(), t_re.data(), t_im.data());
      for (std::size_t i = 0; i < n; ++i) {
        z2[i] = z_re[i] * z_re[i] + z_im[i] * z_im[i];
      }
    }
    fold_psd_plane(s_icp, w_grid.data(), shift, n, psd.data());
    const cplx v_minus_m = p.kvco * isf[-m];
    const double vm_re = v_minus_m.imag();  // components of v_{-m}/s
    const double vm_im = -v_minus_m.real();
    if (taps.size() == 1) {
      // DC-only ISF (the common case): one tap, fused into the PSD
      // accumulation -- bracket = v_{-m}/s - g_0 / (w + m w0).
      const double* inv =
          inv_band.data() + static_cast<std::size_t>(m + taps[0].k + bmax) * n;
      const double* gr = taps[0].g_re.data();
      const double* gi = taps[0].g_im.data();
      for (std::size_t i = 0; i < n; ++i) {
        const double br = vm_re * inv_w[i] - gr[i] * inv[i];
        const double bi = vm_im * inv_w[i] - gi[i] * inv[i];
        const double term = z2[i] * inv_icp2 * (br * br + bi * bi) * psd[i];
        out[i] += sm_im[i] == 0.0 ? 0.0 : term;  // DC skip, as above
      }
    } else {
      // tracking * row_sum plane over the ISF window.
      std::fill(row_re.begin(), row_re.end(), 0.0);
      std::fill(row_im.begin(), row_im.end(), 0.0);
      for (const Tap& tap : taps) {
        const double* inv =
            inv_band.data() +
            static_cast<std::size_t>(m + tap.k + bmax) * n;
        const double* gr = tap.g_re.data();
        const double* gi = tap.g_im.data();
        for (std::size_t i = 0; i < n; ++i) {
          row_re[i] += gr[i] * inv[i];
          row_im[i] += gi[i] * inv[i];
        }
      }
      for (std::size_t i = 0; i < n; ++i) {
        // bracket = v_{-m}/s - tracking * row_sum
        const double br = vm_re * inv_w[i] - row_re[i];
        const double bi = vm_im * inv_w[i] - row_im[i];
        const double term = z2[i] * inv_icp2 * (br * br + bi * bi) * psd[i];
        out[i] += sm_im[i] == 0.0 ? 0.0 : term;  // DC skip, as above
      }
    }
    fold_terms_counter().add(n);
  }
}

std::vector<double> NoiseAnalysis::output_psd_from_reference_grid(
    const std::vector<double>& w_grid, const PsdFunction& s_ref) const {
  require_grid(w_grid);
  require_psd(s_ref, "s_ref");
  HTMPLL_TRACE_SPAN("noise.psd_grid");
  const CVector h00 = model_.baseband_transfer_grid(jw_grid(w_grid));
  std::vector<double> out(w_grid.size(), 0.0);
  psd_reference_into(h00, w_grid, s_ref, out);
  return out;
}

std::vector<double> NoiseAnalysis::output_psd_from_vco_grid(
    const std::vector<double>& w_grid, const PsdFunction& s_vco) const {
  require_grid(w_grid);
  require_psd(s_vco, "s_vco");
  HTMPLL_TRACE_SPAN("noise.psd_grid");
  const CVector h00 = model_.baseband_transfer_grid(jw_grid(w_grid));
  std::vector<double> out(w_grid.size(), 0.0);
  psd_vco_into(h00, w_grid, s_vco, out);
  return out;
}

std::vector<double> NoiseAnalysis::output_psd_from_charge_pump_grid(
    const std::vector<double>& w_grid, const PsdFunction& s_icp) const {
  require_grid(w_grid);
  require_psd(s_icp, "s_icp");
  HTMPLL_TRACE_SPAN("noise.psd_grid");
  const CVector tracking =
      model_.closed_loop_grid({0}, jw_grid(w_grid))[0];
  std::vector<double> out(w_grid.size(), 0.0);
  psd_charge_pump_into(tracking, w_grid, s_icp, out);
  return out;
}

std::vector<double> NoiseAnalysis::output_psd_grid(
    const std::vector<double>& w_grid, const PsdFunction& s_ref,
    const PsdFunction& s_vco, const PsdFunction& s_icp) const {
  require_grid(w_grid);
  require_psd(s_ref, "s_ref");
  require_psd(s_vco, "s_vco");
  require_psd(s_icp, "s_icp");
  HTMPLL_TRACE_SPAN("noise.psd_grid");
  const CVector s_grid = jw_grid(w_grid);
  // One shared plane serves every source: the charge-pump tracking
  // factor V~_0/(1+lambda) is exactly the band-0 closed loop, i.e.
  // H_00 itself.
  const CVector h00 = model_.baseband_transfer_grid(s_grid);
  std::vector<double> out(w_grid.size(), 0.0);
  psd_reference_into(h00, w_grid, s_ref, out);
  psd_vco_into(h00, w_grid, s_vco, out);
  psd_charge_pump_into(h00, w_grid, s_icp, out);
  return out;
}

std::vector<std::vector<double>> NoiseAnalysis::spur_map_grid(
    const std::vector<double>& offsets, int max_harmonic,
    const PsdFunction& s_ref, const PsdFunction& s_vco,
    const PsdFunction& s_icp) const {
  require_grid(offsets);
  HTMPLL_REQUIRE(max_harmonic >= 1,
                 "spur map needs at least the first harmonic");
  const double w0 = model_.w0();
  // Flatten the (harmonic, offset) map into one batched grid so every
  // transfer plane is built once for all rows.
  std::vector<double> w_grid;
  w_grid.reserve(static_cast<std::size_t>(max_harmonic) * offsets.size());
  for (int k = 1; k <= max_harmonic; ++k) {
    for (const double off : offsets) {
      w_grid.push_back(static_cast<double>(k) * w0 + off);
    }
  }
  const std::vector<double> flat =
      output_psd_grid(w_grid, s_ref, s_vco, s_icp);
  std::vector<std::vector<double>> map(
      static_cast<std::size_t>(max_harmonic));
  for (int k = 0; k < max_harmonic; ++k) {
    const std::size_t base = static_cast<std::size_t>(k) * offsets.size();
    map[static_cast<std::size_t>(k)].assign(
        flat.begin() + static_cast<std::ptrdiff_t>(base),
        flat.begin() + static_cast<std::ptrdiff_t>(base + offsets.size()));
  }
  return map;
}

double NoiseAnalysis::integrated_jitter(double w_lo, double w_hi,
                                        const PsdFunction& s_ref,
                                        const PsdFunction& s_vco,
                                        const PsdFunction& s_icp,
                                        std::size_t points) const {
  HTMPLL_REQUIRE(points >= 2, "quadrature needs at least two points");
  const std::vector<double> grid = logspace(w_lo, w_hi, points);
  return trapezoid_rms(grid, output_psd_grid(grid, s_ref, s_vco, s_icp));
}

}  // namespace htmpll
