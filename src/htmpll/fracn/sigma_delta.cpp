#include "htmpll/fracn/sigma_delta.hpp"

#include <cmath>
#include <numbers>

#include "htmpll/util/check.hpp"

namespace htmpll {

namespace {

/// One accumulator step acc += in mod modulus, returning the carry.
/// With acc, in < modulus, it compares against modulus - in before
/// adding, so acc + in never wraps past 2^64 for a modulus above 2^63.
int accumulate(std::uint64_t& acc, std::uint64_t in, std::uint64_t modulus) {
  if (acc >= modulus - in) {
    acc -= modulus - in;
    return 1;
  }
  acc += in;
  return 0;
}

}  // namespace

AccumulatorModulator::AccumulatorModulator(std::uint64_t word,
                                           std::uint64_t modulus)
    : word_(word), modulus_(modulus) {
  HTMPLL_REQUIRE(modulus_ > 0, "modulus must be positive");
  HTMPLL_REQUIRE(word_ < modulus_, "word must be below the modulus");
}

int AccumulatorModulator::next() { return accumulate(acc_, word_, modulus_); }

double AccumulatorModulator::mean() const {
  return static_cast<double>(word_) / static_cast<double>(modulus_);
}

Mash111::Mash111(std::uint64_t word, std::uint64_t modulus)
    : word_(word), modulus_(modulus) {
  HTMPLL_REQUIRE(modulus_ > 0, "modulus must be positive");
  HTMPLL_REQUIRE(word_ < modulus_, "word must be below the modulus");
}

int Mash111::next() {
  const int c1 = accumulate(acc1_, word_, modulus_);
  const int c2 = accumulate(acc2_, acc1_, modulus_);
  const int c3 = accumulate(acc3_, acc2_, modulus_);
  const int y = c1 + (c2 - c2_prev_) + (c3 - 2 * c3_prev_ + c3_prev2_);
  c2_prev_ = c2;
  c3_prev2_ = c3_prev_;
  c3_prev_ = c3;
  return y;
}

double Mash111::mean() const {
  return static_cast<double>(word_) / static_cast<double>(modulus_);
}

std::vector<int> Mash111::sequence(std::size_t count) {
  std::vector<int> out(count);
  for (int& v : out) v = next();
  return out;
}

std::vector<double> divider_phase_sequence(Mash111& mod, double t_vco,
                                           std::size_t count) {
  std::vector<double> out(count);
  const double alpha = mod.mean();
  double acc = 0.0;
  for (std::size_t n = 0; n < count; ++n) {
    acc += static_cast<double>(mod.next()) - alpha;
    out[n] = t_vco * acc;
  }
  return out;
}

std::vector<double> mash_phase_psd(const std::vector<double>& w,
                                   double t_vco, double t_sample,
                                   int order) {
  HTMPLL_REQUIRE(order >= 1 && order <= 4, "MASH order 1..4");
  std::vector<double> out(w.size());
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double hf = 2.0 * std::abs(std::sin(0.5 * w[i] * t_sample));
    out[i] = t_vco * t_vco / 12.0 *
             std::pow(hf, 2.0 * (order - 1)) * t_sample;
  }
  return out;
}

std::vector<double> averaged_periodogram(const std::vector<double>& x,
                                         const std::vector<double>& w,
                                         double t_sample,
                                         std::size_t blocks) {
  HTMPLL_REQUIRE(blocks >= 1, "need at least one block");
  HTMPLL_REQUIRE(x.size() >= blocks * 16, "record too short");
  const std::size_t len = x.size() / blocks;
  std::vector<double> out(w.size(), 0.0);

  // Hann window and its power normalization.
  std::vector<double> win(len);
  double wpow = 0.0;
  for (std::size_t k = 0; k < len; ++k) {
    win[k] = 0.5 * (1.0 - std::cos(2.0 * std::numbers::pi *
                                   static_cast<double>(k) /
                                   static_cast<double>(len - 1)));
    wpow += win[k] * win[k];
  }

  for (std::size_t b = 0; b < blocks; ++b) {
    const double* seg = x.data() + b * len;
    // Remove the segment mean (the shaped error has none, but guard).
    double mean = 0.0;
    for (std::size_t k = 0; k < len; ++k) mean += seg[k];
    mean /= static_cast<double>(len);
    for (std::size_t i = 0; i < w.size(); ++i) {
      cplx bin{0.0};
      for (std::size_t k = 0; k < len; ++k) {
        bin += win[k] * (seg[k] - mean) *
               std::exp(cplx{0.0, -w[i] * t_sample *
                                      static_cast<double>(k)});
      }
      // Two-sided PSD normalization for a windowed DFT bin.
      out[i] += std::norm(bin) * t_sample / wpow;
    }
  }
  for (double& v : out) v /= static_cast<double>(blocks);
  return out;
}

}  // namespace htmpll
