// Fixed-size thread pool with a chunked, deterministic parallel_for.
//
// Every frequency-grid deliverable in this repo (Fig. 5/6/7 sweeps, spur
// maps, pole trajectories, jitter integrals, simulation mark batches) is
// an embarrassingly parallel map over independent evaluation points.
// This pool serves all of them with one set of long-lived workers.
//
// Determinism guarantee: parallel_for partitions [0, n) into fixed
// chunks whose boundaries depend only on n and the grain size -- never
// on the thread count or on scheduling.  Each index is visited exactly
// once and writes only its own output slot, so results are bit-identical
// for any pool size, including the inline single-threaded path.  There
// is no cross-point reduction inside the pool, hence no floating-point
// reassociation.
//
// The worker count of the shared pool is HTMPLL_THREADS when set to a
// valid positive integer (clamped to 256 with a warning above that);
// non-numeric, zero or negative values are rejected with a warning on
// stderr and fall back to std::thread::hardware_concurrency().
// ThreadPool::global().threads() reports the resolved width.
// HTMPLL_THREADS=1 runs every parallel_for inline on the calling thread.
#pragma once

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

#include "htmpll/util/check.hpp"

namespace htmpll {

/// Worker count for the shared pool: HTMPLL_THREADS if set and valid
/// (1..256; larger values clamp to 256 with a warning), else hardware
/// concurrency (at least 1).  Invalid values -- non-numeric text, zero,
/// negatives -- print a warning to stderr and use the fallback instead
/// of silently misconfiguring the pool.
std::size_t configured_thread_count();

class ThreadPool {
 public:
  /// Spawns `threads - 1` workers; the caller of parallel_for always
  /// participates, so `threads == 1` means no worker threads at all.
  explicit ThreadPool(std::size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution width (workers + the calling thread).
  std::size_t threads() const { return workers_.size() + 1; }

  /// Runs fn(i) for every i in [0, n) exactly once, chunked by `grain`
  /// indices per task.  Chunk boundaries depend only on (n, grain).
  /// Blocks until all indices completed.  The first exception thrown by
  /// any fn(i) is rethrown here (remaining chunks are skipped).
  /// Nested calls from inside a worker run inline, and so does a call
  /// from a thread that finds another thread's job in flight (counted
  /// as parallel.pool_jobs_contended).
  void parallel_for(std::size_t n, std::size_t grain,
                    const std::function<void(std::size_t)>& fn);

  /// parallel_for with an automatic grain (targets ~8 chunks per thread).
  void parallel_for(std::size_t n, const std::function<void(std::size_t)>& fn);

  /// True when a (n, grain) job would run inline on the calling thread
  /// with no worker handoff: single-thread pool, job no larger than one
  /// chunk, or a nested call from inside a pool worker.
  bool would_run_inline(std::size_t n, std::size_t grain) const;

  /// Chunk-level map: body(begin, end) over a partition of [0, n) into
  /// blocks of `grain` indices (the last block may be short).  This is
  /// the plan-aware entry point: batch kernels want whole contiguous
  /// blocks, not single indices, so per-thread scratch planes stay hot
  /// across one block and SoA inner loops see long runs.  The inline
  /// path walks the same block partition directly (same boundaries, so
  /// identical per-block behavior at every pool width).
  template <class F>
  void for_each_chunk(std::size_t n, std::size_t grain, F&& body) {
    HTMPLL_REQUIRE(grain >= 1, "for_each_chunk grain must be >= 1");
    if (n == 0) return;
    if (would_run_inline(n, grain)) {
      note_inline_job();
      for (std::size_t b = 0; b < n; b += grain) {
        body(b, std::min(n, b + grain));
      }
      return;
    }
    const std::size_t n_chunks = (n + grain - 1) / grain;
    const std::function<void(std::size_t)> erased = [&](std::size_t ci) {
      const std::size_t b = ci * grain;
      body(b, std::min(n, b + grain));
    };
    parallel_for(n_chunks, 1, erased);
  }

  /// The grain parallel_for(n, fn) would pick (~8 chunks per thread).
  std::size_t auto_grain(std::size_t n) const {
    return std::max<std::size_t>(1, n / (8 * threads()));
  }

  /// Process-wide pool sized by configured_thread_count(), created on
  /// first use.
  static ThreadPool& global();

 private:
  void worker_loop();
  /// Claims and runs chunks of the current job; records the first error.
  void run_chunks();
  /// Metrics hook for for_each_chunk's inline path (counts the job in
  /// parallel.pool_jobs_inline like the type-erased inline path does).
  static void note_inline_job();

  std::vector<std::thread> workers_;

  /// Held by the caller whose job is published, until the job completes.
  std::mutex submit_mu_;
  std::mutex mu_;
  std::condition_variable cv_job_;
  std::condition_variable cv_done_;
  bool stop_ = false;
  std::uint64_t generation_ = 0;  ///< bumped per job (guarded by mu_)
  std::size_t busy_workers_ = 0;  ///< workers still in the current job

  // Current job (written under mu_ before the generation bump).
  std::size_t job_n_ = 0;
  std::size_t job_grain_ = 1;
  const std::function<void(std::size_t)>* job_fn_ = nullptr;
  std::atomic<std::size_t> next_chunk_{0};
  std::atomic<bool> failed_{false};
  std::exception_ptr error_;  ///< first failure (guarded by mu_)
};

}  // namespace htmpll
