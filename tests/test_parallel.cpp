// Tests for the parallel sweep engine: thread-pool semantics
// (coverage, determinism, exception propagation, nesting), the
// HTMPLL_THREADS configuration, and agreement between the batched
// *_grid model APIs and their point-wise counterparts for every lambda
// method and PFD shape.
//
// Built as its own executable so it can also run under
// -DHTMPLL_SANITIZE=thread, where the whole suite would be too slow.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <numbers>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "htmpll/core/sampling_pll.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/parallel/sweep.hpp"
#include "htmpll/parallel/thread_pool.hpp"
#include "htmpll/util/grid.hpp"

namespace htmpll {
namespace {

// A deliberately order-sensitive float computation: if two indices ever
// shared an accumulator, or an index ran twice, the bits would differ.
double heavy(std::size_t i) {
  double acc = static_cast<double>(i) + 0.5;
  for (int k = 0; k < 50; ++k) {
    acc = std::sin(acc) + std::sqrt(acc + static_cast<double>(k));
  }
  return acc;
}

TEST(ThreadPool, CoversEveryIndexExactlyOnce) {
  for (std::size_t width : {1u, 2u, 7u}) {
    ThreadPool pool(width);
    std::vector<std::atomic<int>> hits(257);
    for (auto& h : hits) h.store(0);
    pool.parallel_for(hits.size(), 3, [&](std::size_t i) { hits[i]++; });
    for (std::size_t i = 0; i < hits.size(); ++i) {
      EXPECT_EQ(hits[i].load(), 1) << "index " << i << " width " << width;
    }
  }
}

TEST(ThreadPool, BitIdenticalAcrossPoolSizes) {
  const std::size_t n = 500;
  std::vector<double> reference(n);
  for (std::size_t i = 0; i < n; ++i) reference[i] = heavy(i);

  for (std::size_t width : {1u, 2u, 7u}) {
    ThreadPool pool(width);
    for (std::size_t grain : {1u, 4u, 64u}) {
      std::vector<double> out(n);
      pool.parallel_for(n, grain, [&](std::size_t i) { out[i] = heavy(i); });
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(out[i], reference[i])
            << "i=" << i << " width=" << width << " grain=" << grain;
      }
    }
  }
}

TEST(ThreadPool, PropagatesFirstExceptionFromWorkers) {
  ThreadPool pool(4);
  EXPECT_THROW(
      pool.parallel_for(1000, 1,
                        [](std::size_t i) {
                          if (i == 37) throw std::runtime_error("boom");
                        }),
      std::runtime_error);
}

TEST(ThreadPool, UsableAfterException) {
  ThreadPool pool(3);
  try {
    pool.parallel_for(100, 1, [](std::size_t) {
      throw std::runtime_error("boom");
    });
  } catch (const std::runtime_error&) {
  }
  std::atomic<int> count{0};
  pool.parallel_for(100, 1, [&](std::size_t) { count++; });
  EXPECT_EQ(count.load(), 100);
}

TEST(ThreadPool, NestedCallsRunInlineWithoutDeadlock) {
  ThreadPool pool(4);
  std::vector<double> out(64);
  pool.parallel_for(out.size(), 1, [&](std::size_t i) {
    double inner = 0.0;
    // A nested parallel_for on the same pool must not deadlock; it runs
    // inline on whichever thread is executing this chunk.
    pool.parallel_for(10, 1, [&](std::size_t k) {
      inner += static_cast<double>(k);
    });
    out[i] = inner;
  });
  for (double v : out) EXPECT_EQ(v, 45.0);
}

TEST(ThreadPool, ConcurrentCallersEachCoverEveryIndexOnce) {
  // Several non-worker threads submitting to one pool at once: each job
  // must still visit every one of its own indices exactly once, whether
  // it ran on the pool or inline behind another caller's job.
  ThreadPool pool(4);
  constexpr int kCallers = 8;
  constexpr int kJobs = 100;
  std::atomic<int> bad_jobs{0};
  std::vector<std::thread> callers;
  for (int c = 0; c < kCallers; ++c) {
    callers.emplace_back([&, c] {
      for (int job = 0; job < kJobs; ++job) {
        const std::size_t n = 1 + static_cast<std::size_t>(
                                      (c * 131 + job * 37) % 500);
        const std::size_t grain = 1 + static_cast<std::size_t>(job % 7);
        std::vector<std::atomic<int>> hits(n);
        for (auto& h : hits) h.store(0);
        pool.parallel_for(n, grain, [&](std::size_t i) { hits[i]++; });
        for (const auto& h : hits) {
          if (h.load() != 1) {
            bad_jobs++;
            break;
          }
        }
      }
    });
  }
  for (std::thread& t : callers) t.join();
  EXPECT_EQ(bad_jobs.load(), 0);
}

TEST(ThreadPool, ContendedCallerRunsInlineAndIsCounted) {
  // One thread's job is held in flight at index 0; a second caller then
  // finds the pool busy, runs its own job inline, and is counted once
  // as contended and once as inline.
  const bool was = obs::enabled();
  obs::enable();
  ThreadPool pool(4);
  std::atomic<bool> holding{false};
  std::atomic<bool> release{false};
  std::thread holder([&] {
    pool.parallel_for(4, 1, [&](std::size_t i) {
      if (i != 0) return;
      holding.store(true);
      while (!release.load()) std::this_thread::yield();
    });
  });
  while (!holding.load()) std::this_thread::yield();

  obs::Counter& contended = obs::counter("parallel.pool_jobs_contended");
  obs::Counter& inline_jobs = obs::counter("parallel.pool_jobs_inline");
  const std::uint64_t c0 = contended.value();
  const std::uint64_t i0 = inline_jobs.value();
  const std::thread::id caller = std::this_thread::get_id();
  std::vector<std::atomic<int>> hits(64);
  std::atomic<bool> all_on_caller{true};
  pool.parallel_for(hits.size(), 1, [&](std::size_t i) {
    hits[i]++;
    if (std::this_thread::get_id() != caller) all_on_caller.store(false);
  });
  const std::uint64_t c1 = contended.value();
  const std::uint64_t i1 = inline_jobs.value();
  release.store(true);
  holder.join();
  if (!was) obs::disable();

  EXPECT_TRUE(all_on_caller);
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << i;
  }
  EXPECT_EQ(c1 - c0, 1u);
  EXPECT_EQ(i1 - i0, 1u);
}

TEST(ThreadPool, RejectsZeroGrainAndAcceptsEmptyRange) {
  ThreadPool pool(2);
  EXPECT_THROW(pool.parallel_for(10, 0, [](std::size_t) {}),
               std::invalid_argument);
  EXPECT_NO_THROW(pool.parallel_for(0, 1, [](std::size_t) {
    throw std::runtime_error("never called");
  }));
}

TEST(ThreadPool, ConfiguredThreadCountParsesEnvironment) {
  const char* saved = std::getenv("HTMPLL_THREADS");
  const std::string restore = saved ? saved : "";

  ::setenv("HTMPLL_THREADS", "1", 1);
  EXPECT_EQ(configured_thread_count(), 1u);
  ::setenv("HTMPLL_THREADS", "7", 1);
  EXPECT_EQ(configured_thread_count(), 7u);
  ::setenv("HTMPLL_THREADS", "9999", 1);
  EXPECT_EQ(configured_thread_count(), 256u);  // clamped

  // Invalid values fall back to hardware concurrency.
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t fallback = hw == 0 ? 1 : hw;
  ::setenv("HTMPLL_THREADS", "0", 1);
  EXPECT_EQ(configured_thread_count(), fallback);
  ::setenv("HTMPLL_THREADS", "abc", 1);
  EXPECT_EQ(configured_thread_count(), fallback);
  ::unsetenv("HTMPLL_THREADS");
  EXPECT_EQ(configured_thread_count(), fallback);

  if (saved) {
    ::setenv("HTMPLL_THREADS", restore.c_str(), 1);
  } else {
    ::unsetenv("HTMPLL_THREADS");
  }
}

TEST(Sweep, ParallelMapPreservesOrder) {
  ThreadPool pool(5);
  const auto out = parallel_map<double>(pool, 300, [](std::size_t i) {
    return heavy(i);
  });
  ASSERT_EQ(out.size(), 300u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], heavy(i));
  }
}

TEST(Sweep, RunnerMatchesSerialBitwise) {
  const auto eval = [](cplx s) {
    return (s + cplx{1.0, 0.5}) / (s * s + cplx{2.0});
  };
  const std::vector<double> w = logspace(1e-2, 1e2, 333);
  const CVector s_grid = jw_grid(w);

  ThreadPool serial(1);
  ThreadPool wide(7);
  const CVector a = SweepRunner(serial).run(s_grid, eval);
  const CVector b = SweepRunner(wide).run(s_grid, eval);
  const CVector c = SweepRunner(wide).run_jw(w, eval);
  ASSERT_EQ(a.size(), s_grid.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]);
    EXPECT_EQ(a[i], c[i]);
    EXPECT_EQ(a[i], eval(s_grid[i]));
  }
}

TEST(Sweep, JwGrid) {
  const std::vector<double> w = {0.5, 2.0, 7.5};
  const CVector s = jw_grid(w);
  ASSERT_EQ(s.size(), 3u);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(s[i], (cplx{0.0, w[i]}));
  }
}

// ---- batched model APIs vs point-wise, all methods x shapes -----------

class GridApiTest
    : public ::testing::TestWithParam<std::tuple<LambdaMethod, PfdShape>> {};

TEST_P(GridApiTest, GridsMatchPointwiseCalls) {
  const auto [method, shape] = GetParam();
  const double w0 = 2.0 * std::numbers::pi;

  SamplingPllOptions opts;
  opts.lambda_method = method;
  opts.truncation = 12;
  opts.pfd_shape = shape;
  const SamplingPllModel model(make_typical_loop(0.1 * w0, w0),
                               HarmonicCoefficients(cplx{1.0}), opts);

  const CVector s_grid = jw_grid(logspace(1e-3 * w0, 0.49 * w0, 200));

  const CVector lam = model.lambda_grid(s_grid);
  const CVector h00 = model.baseband_transfer_grid(s_grid);
  const CVector lti = model.lti_baseband_transfer_grid(s_grid);
  const CVector err = model.baseband_error_transfer_grid(s_grid);
  const std::vector<int> bands = {-2, -1, 0, 1, 3};
  const std::vector<CVector> cl = model.closed_loop_grid(bands, s_grid);
  ASSERT_EQ(cl.size(), bands.size());

  // kAdaptive runs the point-wise call per slot, bit for bit; kExact and
  // kTruncated run the compiled plan to <= 1e-12 relative.  1 - H00
  // cancels at low w, so its error is bounded against |H00| instead.
  const bool pointwise = method == LambdaMethod::kAdaptive;
  const auto expect_match = [&](cplx got, cplx want, double scale,
                                const char* what, std::size_t i) {
    if (pointwise) {
      EXPECT_EQ(got, want) << what << " i=" << i;
    } else {
      EXPECT_LE(std::abs(got - want), 1e-12 * scale) << what << " i=" << i;
    }
  };
  for (std::size_t i = 0; i < s_grid.size(); ++i) {
    const cplx s = s_grid[i];
    const cplx l = model.lambda(s);
    const cplx h = model.baseband_transfer(s);
    expect_match(lam[i], l, std::abs(l), "lambda", i);
    expect_match(h00[i], h, std::abs(h), "h00", i);
    EXPECT_EQ(lti[i], model.lti_baseband_transfer(s)) << "lti i=" << i;
    expect_match(err[i], model.baseband_error_transfer(s), std::abs(h),
                 "err", i);
    for (std::size_t b = 0; b < bands.size(); ++b) {
      const cplx want = model.closed_loop(bands[b], s);
      expect_match(cl[b][i], want, std::abs(want), "band", i);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    AllMethodsAndShapes, GridApiTest,
    ::testing::Combine(::testing::Values(LambdaMethod::kExact,
                                         LambdaMethod::kAdaptive,
                                         LambdaMethod::kTruncated),
                       ::testing::Values(PfdShape::kImpulse,
                                         PfdShape::kZeroOrderHold)));

TEST(GridApi, LptvVcoGridsMatchScalar) {
  // Non-trivial ISF exercises the plan's shared shifted-gain table
  // across harmonics and bands; every slot matches the point-wise call
  // to <= 1e-12 relative.
  const double w0 = 2.0 * std::numbers::pi;
  const HarmonicCoefficients isf =
      HarmonicCoefficients::real_waveform(1.0, {cplx{0.2, 0.1},
                                                cplx{0.05, -0.02}});
  SamplingPllOptions opts;
  opts.lambda_method = LambdaMethod::kTruncated;
  opts.truncation = 10;
  const SamplingPllModel model(make_typical_loop(0.1 * w0, w0), isf, opts);

  const CVector s_grid = jw_grid(logspace(1e-2 * w0, 0.45 * w0, 60));
  const CVector lam = model.lambda_grid(s_grid);
  const CVector h00 = model.baseband_transfer_grid(s_grid);
  const std::vector<int> bands = {-1, 0, 2};
  const std::vector<CVector> cl = model.closed_loop_grid(bands, s_grid);

  for (std::size_t i = 0; i < s_grid.size(); ++i) {
    const cplx l = model.lambda(s_grid[i]);
    const cplx h = model.baseband_transfer(s_grid[i]);
    EXPECT_LE(std::abs(lam[i] - l), 1e-12 * std::abs(l)) << "i=" << i;
    EXPECT_LE(std::abs(h00[i] - h), 1e-12 * std::abs(h)) << "i=" << i;
    for (std::size_t b = 0; b < bands.size(); ++b) {
      const cplx want = model.closed_loop(bands[b], s_grid[i]);
      EXPECT_LE(std::abs(cl[b][i] - want), 1e-12 * std::abs(want))
          << "band " << bands[b] << " i=" << i;
    }
  }
}

// ---- grid builder edge cases (sweep inputs) ---------------------------

TEST(GridBuilders, RejectEmptyGrids) {
  EXPECT_THROW(linspace(0.0, 1.0, 0), std::invalid_argument);
  EXPECT_THROW(logspace(1.0, 2.0, 0), std::invalid_argument);
  EXPECT_THROW(geomspace(1.0, 2.0, 0), std::invalid_argument);
}

TEST(GridBuilders, SinglePointReturnsLo) {
  EXPECT_EQ(linspace(3.0, 7.0, 1), std::vector<double>{3.0});
  EXPECT_EQ(logspace(3.0, 7.0, 1), std::vector<double>{3.0});
  EXPECT_EQ(geomspace(3.0, 7.0, 1), std::vector<double>{3.0});
}

TEST(GridBuilders, GeomspaceEndpointsBitExact) {
  const double lo = 0.1, hi = 730.0;  // neither is exactly representable fun
  const auto g = geomspace(lo, hi, 57);
  ASSERT_EQ(g.size(), 57u);
  EXPECT_EQ(g.front(), lo);
  EXPECT_EQ(g.back(), hi);
  for (std::size_t i = 1; i + 1 < g.size(); ++i) {
    EXPECT_NEAR(g[i + 1] / g[i], g[1] / g[0], 1e-12);
  }
}

TEST(GridBuilders, GeomspaceDescendingAndNegative) {
  const auto down = geomspace(100.0, 1.0, 5);
  EXPECT_EQ(down.front(), 100.0);
  EXPECT_EQ(down.back(), 1.0);
  EXPECT_GT(down[1], down[2]);

  const auto neg = geomspace(-1.0, -16.0, 5);
  EXPECT_EQ(neg.front(), -1.0);
  EXPECT_EQ(neg.back(), -16.0);
  EXPECT_NEAR(neg[2], -4.0, 1e-12);
}

TEST(GridBuilders, GeomspaceRejectsZeroOrMixedSign) {
  EXPECT_THROW(geomspace(0.0, 1.0, 4), std::invalid_argument);
  EXPECT_THROW(geomspace(1.0, 0.0, 4), std::invalid_argument);
  EXPECT_THROW(geomspace(-1.0, 1.0, 4), std::invalid_argument);
}

TEST(GridBuilders, LogspaceEndpointsBitExact) {
  const auto g = logspace(0.3, 97.0, 41);
  EXPECT_EQ(g.front(), 0.3);
  EXPECT_EQ(g.back(), 97.0);
}

}  // namespace
}  // namespace htmpll
