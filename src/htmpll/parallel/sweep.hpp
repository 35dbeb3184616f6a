// Frequency-sweep helpers on top of the thread pool.
//
// parallel_map evaluates any index -> value function over a grid with
// deterministic output ordering: slot i of the result is always fn(i),
// regardless of thread count.  Functions must be safe to call
// concurrently from several threads on distinct points (every const
// method of the model layer is).
#pragma once

#include <complex>
#include <vector>

#include "htmpll/parallel/thread_pool.hpp"

namespace htmpll {

using cplx = std::complex<double>;

/// out[i] = fn(i) for i in [0, n), evaluated on the pool.  Deterministic:
/// each slot is written by exactly the index that owns it.
template <class T, class F>
std::vector<T> parallel_map(ThreadPool& pool, std::size_t n, F&& fn) {
  std::vector<T> out(n);
  pool.parallel_for(n, [&](std::size_t i) { out[i] = fn(i); });
  return out;
}

/// Convenience overload on the shared pool.
template <class T, class F>
std::vector<T> parallel_map(std::size_t n, F&& fn) {
  return parallel_map<T>(ThreadPool::global(), n, static_cast<F&&>(fn));
}

/// s = j w for every w of a real frequency grid.
std::vector<cplx> jw_grid(const std::vector<double>& w);

}  // namespace htmpll
