#include "htmpll/linalg/simd.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <stdexcept>

#include "htmpll/linalg/batch_kernels_simd.hpp"

namespace htmpll::simd {

namespace {

/// HTMPLL_SIMD environment policy: true means "force scalar".
bool env_forces_scalar() {
  const char* e = std::getenv("HTMPLL_SIMD");
  if (e == nullptr || *e == '\0') return false;
  if (std::strcmp(e, "0") == 0 || std::strcmp(e, "off") == 0 ||
      std::strcmp(e, "scalar") == 0) {
    return true;
  }
  if (std::strcmp(e, "1") == 0 || std::strcmp(e, "on") == 0 ||
      std::strcmp(e, "auto") == 0 || std::strcmp(e, "avx2") == 0) {
    return false;
  }
  std::fprintf(stderr,
               "htmpll: warning: HTMPLL_SIMD='%s' is not recognized "
               "(use 0/off/scalar or 1/on/auto); keeping auto-detection\n",
               e);
  return false;
}

Isa resolve_isa() {
  if (!detail::simd_kernels_compiled()) return Isa::kScalar;
  if (env_forces_scalar()) return Isa::kScalar;
  return cpu_has_avx2_fma() ? Isa::kAvx2Fma : Isa::kScalar;
}

/// Cached dispatch decision.  Encoded as int so the unresolved state
/// (-1) fits alongside the Isa values; relaxed atomics suffice because
/// resolve_isa() is idempotent (racing first calls agree).
std::atomic<int> g_isa{-1};

}  // namespace

bool compiled() { return detail::simd_kernels_compiled(); }

bool cpu_has_avx2_fma() { return detail::simd_cpu_has_avx2_fma(); }

Isa active_isa() {
  int v = g_isa.load(std::memory_order_relaxed);
  if (v < 0) {
    const Isa isa = resolve_isa();
    g_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
    return isa;
  }
  return static_cast<Isa>(v);
}

void set_isa(Isa isa) {
  if (isa == Isa::kAvx2Fma) {
    if (!compiled()) {
      throw std::invalid_argument(
          "simd::set_isa: AVX2 kernels were not compiled into this build "
          "(configure with -DHTMPLL_SIMD=ON)");
    }
    if (!cpu_has_avx2_fma()) {
      throw std::invalid_argument(
          "simd::set_isa: this CPU does not report AVX2+FMA");
    }
  }
  g_isa.store(static_cast<int>(isa), std::memory_order_relaxed);
}

const char* isa_name(Isa isa) {
  switch (isa) {
    case Isa::kScalar:
      return "scalar";
    case Isa::kAvx2Fma:
      return "avx2-fma";
  }
  return "unknown";
}

std::size_t lane_width(Isa isa) {
  return isa == Isa::kAvx2Fma ? 4 : 1;
}

}  // namespace htmpll::simd
