#include "htmpll/parallel/thread_pool.hpp"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "htmpll/obs/metrics.hpp"
#include "htmpll/obs/trace.hpp"
#include "htmpll/util/check.hpp"

namespace htmpll {

namespace {

/// True on threads that belong to some pool; nested parallel_for calls
/// from inside a worker run inline instead of deadlocking on the pool.
thread_local bool t_inside_worker = false;

/// Pool instrumentation.  Jobs are counted per dispatch (coarse);
/// busy/width nanoseconds let telemetry derive pool utilization as
/// busy_ns / width_ns without assuming a single pool width per process.
struct PoolMetrics {
  obs::Counter& jobs = obs::counter("parallel.pool_jobs");
  obs::Counter& jobs_inline = obs::counter("parallel.pool_jobs_inline");
  obs::Counter& jobs_contended =
      obs::counter("parallel.pool_jobs_contended");
  obs::Counter& busy_ns = obs::counter("parallel.pool_busy_ns");
  obs::Counter& width_ns = obs::counter("parallel.pool_width_ns");
};

PoolMetrics& pool_metrics() {
  static PoolMetrics m;
  return m;
}

}  // namespace

std::size_t configured_thread_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t fallback = hw == 0 ? 1 : static_cast<std::size_t>(hw);
  if (const char* env = std::getenv("HTMPLL_THREADS")) {
    char* end = nullptr;
    errno = 0;
    const long parsed = std::strtol(env, &end, 10);
    const bool numeric = end != env && *end == '\0' && errno == 0;
    if (!numeric) {
      // Garbage ("abc", "4x", "", out-of-range): reject loudly instead
      // of silently misconfiguring the pool.
      std::fprintf(stderr,
                   "htmpll: warning: HTMPLL_THREADS='%s' is not an "
                   "integer; using hardware concurrency (%zu)\n",
                   env, fallback);
      return fallback;
    }
    if (parsed < 1) {
      std::fprintf(stderr,
                   "htmpll: warning: HTMPLL_THREADS=%ld must be >= 1; "
                   "using hardware concurrency (%zu)\n",
                   parsed, fallback);
      return fallback;
    }
    if (parsed > 256) {
      std::fprintf(stderr,
                   "htmpll: warning: HTMPLL_THREADS=%ld clamped to the "
                   "pool maximum of 256\n",
                   parsed);
      return 256;
    }
    return static_cast<std::size_t>(parsed);
  }
  return fallback;
}

ThreadPool::ThreadPool(std::size_t threads) {
  HTMPLL_REQUIRE(threads >= 1, "thread pool needs at least one thread");
  workers_.reserve(threads - 1);
  for (std::size_t i = 0; i + 1 < threads; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  {
    std::lock_guard<std::mutex> lock(mu_);
    stop_ = true;
  }
  cv_job_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::worker_loop() {
  t_inside_worker = true;
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    cv_job_.wait(lock, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    lock.unlock();
    run_chunks();
    lock.lock();
    if (--busy_workers_ == 0) cv_done_.notify_all();
  }
}

void ThreadPool::run_chunks() {
  const std::size_t n = job_n_;
  const std::size_t grain = job_grain_;
  const std::function<void(std::size_t)>& fn = *job_fn_;
  const bool instrumented = obs::enabled();
  const std::uint64_t t0 = instrumented ? obs::now_ns() : 0;
  for (;;) {
    const std::size_t chunk =
        next_chunk_.fetch_add(1, std::memory_order_relaxed);
    const std::size_t begin = chunk * grain;
    if (begin >= n) break;
    if (failed_.load(std::memory_order_relaxed)) break;
    const std::size_t end = std::min(n, begin + grain);
    try {
      for (std::size_t i = begin; i < end; ++i) fn(i);
    } catch (...) {
      std::lock_guard<std::mutex> lock(mu_);
      if (!error_) error_ = std::current_exception();
      failed_.store(true, std::memory_order_relaxed);
    }
  }
  if (instrumented) pool_metrics().busy_ns.add(obs::now_ns() - t0);
}

void ThreadPool::parallel_for(std::size_t n, std::size_t grain,
                              const std::function<void(std::size_t)>& fn) {
  HTMPLL_REQUIRE(grain >= 1, "parallel_for grain must be >= 1");
  if (n == 0) return;
  // One job at a time: a caller that finds another caller's job in
  // flight runs its own inline.  Chunk boundaries depend only on
  // (n, grain), so the results are the same either way.
  std::unique_lock<std::mutex> submission(submit_mu_, std::defer_lock);
  const bool contended =
      !would_run_inline(n, grain) && !submission.try_lock();
  if (!submission.owns_lock()) {
    if (obs::enabled()) {
      PoolMetrics& m = pool_metrics();
      m.jobs_inline.add();
      if (contended) m.jobs_contended.add();
    }
    for (std::size_t i = 0; i < n; ++i) fn(i);
    return;
  }
  HTMPLL_TRACE_SPAN("pool.parallel_for");
  const bool instrumented = obs::enabled();
  const std::uint64_t job_t0 = instrumented ? obs::now_ns() : 0;
  if (instrumented) pool_metrics().jobs.add();
  {
    std::lock_guard<std::mutex> lock(mu_);
    job_n_ = n;
    job_grain_ = grain;
    job_fn_ = &fn;
    next_chunk_.store(0, std::memory_order_relaxed);
    failed_.store(false, std::memory_order_relaxed);
    error_ = nullptr;
    busy_workers_ = workers_.size();
    ++generation_;
  }
  cv_job_.notify_all();
  // Mark the participating caller like a worker for the duration of its
  // chunk processing: a nested parallel_for issued from inside fn would
  // otherwise publish a second job on this pool mid-flight.
  const bool was_inside = t_inside_worker;
  t_inside_worker = true;
  run_chunks();
  t_inside_worker = was_inside;
  std::unique_lock<std::mutex> lock(mu_);
  cv_done_.wait(lock, [&] { return busy_workers_ == 0; });
  job_fn_ = nullptr;
  if (instrumented) {
    // Capacity offered during this job: wall time times pool width.
    // Telemetry derives utilization as pool_busy_ns / pool_width_ns.
    pool_metrics().width_ns.add((obs::now_ns() - job_t0) * threads());
  }
  if (error_) {
    std::exception_ptr err = error_;
    error_ = nullptr;
    lock.unlock();
    std::rethrow_exception(err);
  }
}

void ThreadPool::parallel_for(std::size_t n,
                              const std::function<void(std::size_t)>& fn) {
  parallel_for(n, auto_grain(n), fn);
}

bool ThreadPool::would_run_inline(std::size_t n, std::size_t grain) const {
  return workers_.empty() || n <= grain || t_inside_worker;
}

void ThreadPool::note_inline_job() {
  if (obs::enabled()) pool_metrics().jobs_inline.add();
}

ThreadPool& ThreadPool::global() {
  static ThreadPool pool(configured_thread_count());
  return pool;
}

}  // namespace htmpll
