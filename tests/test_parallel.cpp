// Tests for the parallel sweep engine: thread-pool semantics
// (coverage, determinism, exception propagation, nesting, the
// incomplete-job health event), the HTMPLL_THREADS configuration, the
// design layer under concurrent callers, and agreement between the
// batched *_grid model APIs and their point-wise counterparts across
// loop families and PFD shapes.
//
// Built as its own executable so it can also run under
// -DHTMPLL_SANITIZE=thread, where the whole suite would be too slow.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <exception>
#include <numbers>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "htmpll/core/sampling_pll.hpp"
#include "htmpll/design/design.hpp"
#include "htmpll/design/design_sweep.hpp"
#include "htmpll/lti/bode.hpp"
#include "htmpll/lti/delay.hpp"
#include "htmpll/lti/loop_filter.hpp"
#include "htmpll/obs/diag.hpp"
#include "htmpll/obs/metrics.hpp"
#include "htmpll/parallel/sweep.hpp"
#include "htmpll/parallel/thread_pool.hpp"
#include "htmpll/util/grid.hpp"
#include "obs_scope.hpp"

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

TEST(ThreadPool, CompleteJobsRecordNoIncompleteJobEvent) {
  // Every job that raises nothing runs all n indices, so the health
  // tally parallel.incomplete_job stays 0 over pooled, inline, nested
  // and contended jobs.  A throwing job skips its remaining chunks on
  // purpose and records nothing either.
  ScopedObs on(true);
  obs::Counter& incomplete = obs::counter(
      obs::diag_reason_name(obs::DiagReason::kParallelIncompleteJob));
  const std::uint64_t before = incomplete.value();
  std::atomic<std::size_t> ran{0};
  const auto count = [&](std::size_t) { ran++; };

  ThreadPool pool(4);
  for (std::size_t grain : {1u, 3u, 64u}) {
    pool.parallel_for(1000, grain, count);  // pooled
  }
  ThreadPool single(1);
  single.parallel_for(100, 1, count);  // inline: no workers
  pool.parallel_for(32, 1, [&](std::size_t) {  // nested: inner inline
    pool.parallel_for(10, 1, count);
  });
  pool.for_each_chunk(500, 7, [&](std::size_t b, std::size_t e) {
    ran += e - b;
  });
  EXPECT_EQ(ran.load(), 3u * 1000u + 100u + 320u + 500u);

  // Contended: a second caller runs its job inline behind a held one.
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
  pool.parallel_for(64, 1, count);
  release.store(true);
  holder.join();

  EXPECT_THROW(pool.parallel_for(1000, 1,
                                 [](std::size_t i) {
                                   if (i == 37) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  EXPECT_EQ(incomplete.value(), before);
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

TEST(Sweep, JwGrid) {
  const std::vector<double> w = {0.5, 2.0, 7.5};
  const CVector s = jw_grid(w);
  ASSERT_EQ(s.size(), 3u);
  for (std::size_t i = 0; i < w.size(); ++i) {
    EXPECT_EQ(s[i], (cplx{0.0, w[i]}));
  }
}

// A pooled Bode sweep -- A(jw) evaluated over jw_grid with parallel_map,
// its phase unwrapped serially by bode_points_from_samples -- gives the
// serial bode_sweep's rows bit for bit at every pool width.  fig5's
// open-loop table is the serial sweep of the same response.
TEST(Sweep, PooledBodeSamplesMatchSerialSweepBitwise) {
  const double w0 = 2.0 * std::numbers::pi;
  const double w_ug = 0.1 * w0;
  const RationalFunction a = make_typical_loop(w_ug, w0).open_loop_gain();
  const FrequencyResponse resp = [&a](double w) {
    return a(cplx{0.0, w});
  };
  const std::size_t n = 333;
  const std::vector<BodePoint> serial =
      bode_sweep(resp, 1e-2 * w_ug, 1e2 * w_ug, n);
  ASSERT_EQ(serial.size(), n);

  const std::vector<double> w = logspace(1e-2 * w_ug, 1e2 * w_ug, n);
  const CVector s = jw_grid(w);
  for (std::size_t threads : {1u, 7u}) {
    ThreadPool pool(threads);
    const CVector samples = parallel_map<cplx>(
        pool, s.size(), [&](std::size_t i) { return a(s[i]); });
    const std::vector<BodePoint> pooled = bode_points_from_samples(w, samples);
    ASSERT_EQ(pooled.size(), n);
    for (std::size_t i = 0; i < n; ++i) {
      EXPECT_EQ(pooled[i].w, serial[i].w) << threads << " threads, " << i;
      EXPECT_EQ(pooled[i].mag_db, serial[i].mag_db)
          << threads << " threads, " << i;
      EXPECT_EQ(pooled[i].phase_deg, serial[i].phase_deg)
          << threads << " threads, " << i;
    }
  }
}

// ---- batched model APIs vs point-wise, loops x shapes -----------------

enum class Loop { kTypical, kSecondOrder, kPadeDelayed };

class GridApiTest
    : public ::testing::TestWithParam<std::tuple<Loop, PfdShape>> {};

TEST_P(GridApiTest, GridsMatchPointwiseCalls) {
  const auto [loop, shape] = GetParam();
  const double w0 = 2.0 * std::numbers::pi;

  SamplingPllOptions opts;
  opts.pfd_shape = shape;
  const PllParameters params = loop == Loop::kSecondOrder
                                   ? make_second_order_loop(0.1 * w0, w0)
                                   : make_typical_loop(0.1 * w0, w0);
  const RationalFunction extra =
      loop == Loop::kPadeDelayed ? pade_delay(0.05 * params.period(), 3)
                                 : RationalFunction::constant(1.0);
  const SamplingPllModel model(params, HarmonicCoefficients(cplx{1.0}), opts,
                               extra);

  const CVector s_grid = jw_grid(logspace(1e-3 * w0, 0.49 * w0, 200));

  const CVector lam = model.lambda_grid(s_grid);
  const CVector h00 = model.baseband_transfer_grid(s_grid);
  const CVector lti = model.lti_baseband_transfer_grid(s_grid);
  const CVector err = model.baseband_error_transfer_grid(s_grid);
  const std::vector<int> bands = {-2, -1, 0, 1, 3};
  const std::vector<CVector> cl = model.closed_loop_grid(bands, s_grid);
  ASSERT_EQ(cl.size(), bands.size());

  // The compiled plan holds <= 1e-12 relative.  1 - H00 cancels at low
  // w, so its error is bounded against |H00| instead.
  const auto expect_match = [&](cplx got, cplx want, double scale,
                                const char* what, std::size_t i) {
    EXPECT_LE(std::abs(got - want), 1e-12 * scale) << what << " i=" << i;
  };
  for (std::size_t i = 0; i < s_grid.size(); ++i) {
    const cplx s = s_grid[i];
    const cplx l = model.lambda(s);
    const cplx h = model.baseband_transfer(s);
    expect_match(lam[i], l, std::abs(l), "lambda", i);
    expect_match(h00[i], h, std::abs(h), "h00", i);
    const cplx a = model.lti_baseband_transfer(s);
    expect_match(lti[i], a, std::abs(a), "lti", i);
    expect_match(err[i], model.baseband_error_transfer(s), std::abs(h),
                 "err", i);
    for (std::size_t b = 0; b < bands.size(); ++b) {
      const cplx want = model.closed_loop(bands[b], s);
      expect_match(cl[b][i], want, std::abs(want), "band", i);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    LoopsAndShapes, GridApiTest,
    ::testing::Combine(::testing::Values(Loop::kTypical, Loop::kSecondOrder,
                                         Loop::kPadeDelayed),
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
  const SamplingPllModel model(make_typical_loop(0.1 * w0, w0), isf);

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

// ---- the design layer under concurrent callers -----------------------

void expect_same_map(const DesignSpaceMap& got, const DesignSpaceMap& want) {
  ASSERT_EQ(got.points.size(), want.points.size());
  for (std::size_t i = 0; i < want.points.size(); ++i) {
    const DesignPoint& a = got.points[i];
    const DesignPoint& b = want.points[i];
    EXPECT_EQ(a.ratio, b.ratio) << i;
    EXPECT_EQ(a.gamma, b.gamma) << i;
    EXPECT_EQ(a.design.margins.lti_crossover, b.design.margins.lti_crossover)
        << i;
    EXPECT_EQ(a.design.margins.lti_phase_margin_deg,
              b.design.margins.lti_phase_margin_deg)
        << i;
    EXPECT_EQ(a.design.margins.eff_crossover, b.design.margins.eff_crossover)
        << i;
    EXPECT_EQ(a.design.margins.eff_phase_margin_deg,
              b.design.margins.eff_phase_margin_deg)
        << i;
    EXPECT_EQ(a.design.margins.lti_found, b.design.margins.lti_found) << i;
    EXPECT_EQ(a.design.margins.eff_found, b.design.margins.eff_found) << i;
    EXPECT_EQ(a.design.z_domain_stable, b.design.z_domain_stable) << i;
    EXPECT_EQ(a.half_rate_lambda, b.half_rate_lambda) << i;
    ASSERT_EQ(a.poles.size(), b.poles.size()) << i;
    for (std::size_t k = 0; k < b.poles.size(); ++k) {
      EXPECT_EQ(a.poles[k].s, b.poles[k].s) << i << " pole " << k;
      EXPECT_EQ(a.poles[k].residual, b.poles[k].residual) << i;
      EXPECT_EQ(a.poles[k].iterations, b.poles[k].iterations) << i;
      EXPECT_EQ(a.poles[k].converged, b.poles[k].converged) << i;
    }
  }
}

void expect_same_jitter(const JitterOptimizationResult& got,
                        const JitterOptimizationResult& want) {
  EXPECT_EQ(got.w_ug_tv, want.w_ug_tv);
  EXPECT_EQ(got.rms_tv, want.rms_tv);
  EXPECT_EQ(got.w_ug_lti, want.w_ug_lti);
  EXPECT_EQ(got.rms_at_lti_pick, want.rms_at_lti_pick);
  EXPECT_EQ(got.penalty, want.penalty);
}

TEST(Design, ConcurrentMapsAndJitterSearchesMatchSerial) {
  // Two callers run a design-space map (whose points fan out over the
  // global pool, each sharing one z-domain model between the verdict
  // and the pole seeds) and a jitter search at once; each result equals
  // the one computed alone first, bit for bit.
  const double w0 = 2.0 * std::numbers::pi * 10e6;
  DesignSpec spec;
  spec.w0 = w0;
  spec.target_w_ug = 0.1 * w0;
  spec.target_pm_deg = 60.0;
  const std::vector<double> ratios{0.01, 0.03, 0.06, 0.1, 0.18, 0.26};
  const std::vector<double> gammas{3.0, 5.0};
  JitterOptimizationSpec jitter;
  jitter.w0 = w0;
  const double corner = 0.3 * w0;
  jitter.s_ref = PowerLawPsd{1e-24, 0.0, 0.0};
  jitter.s_vco = PowerLawPsd{0.0, 0.0, 1e-24 * corner * corner};

  const DesignSpaceMap serial_map = design_space_map(spec, ratios, gammas);
  const JitterOptimizationResult serial_jitter =
      optimize_bandwidth_for_jitter(jitter);

  DesignSpaceMap maps[2];
  JitterOptimizationResult jitters[2];
  std::exception_ptr errors[2];
  std::vector<std::thread> callers;
  for (int c = 0; c < 2; ++c) {
    callers.emplace_back([&, c] {
      try {
        // Opposite orders, so a map overlaps the other caller's search.
        if (c == 0) {
          maps[c] = design_space_map(spec, ratios, gammas);
          jitters[c] = optimize_bandwidth_for_jitter(jitter);
        } else {
          jitters[c] = optimize_bandwidth_for_jitter(jitter);
          maps[c] = design_space_map(spec, ratios, gammas);
        }
      } catch (...) {
        errors[c] = std::current_exception();
      }
    });
  }
  for (std::thread& t : callers) t.join();
  for (int c = 0; c < 2; ++c) {
    ASSERT_FALSE(errors[c]) << "caller " << c << " threw";
    expect_same_map(maps[c], serial_map);
    expect_same_jitter(jitters[c], serial_jitter);
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
