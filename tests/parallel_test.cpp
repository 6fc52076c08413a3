// Unit tests for the thread pool, blocked_for/parallel_for, filter, rng.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>

#include "amem/counters.hpp"
#include "parallel/parallel_for.hpp"
#include "parallel/rng.hpp"
#include "parallel/scan.hpp"

namespace {

using namespace wecc;

TEST(ThreadPool, ReportsAtLeastOneThread) {
  EXPECT_GE(parallel::num_threads(), 1u);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  constexpr std::size_t n = 100000;
  std::vector<std::atomic<int>> hits(n);
  parallel::parallel_for(0, n, [&](std::size_t i) {
    hits[i].fetch_add(1, std::memory_order_relaxed);
  });
  for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, EmptyAndSingletonRanges) {
  int count = 0;
  parallel::parallel_for(5, 5, [&](std::size_t) { ++count; });
  EXPECT_EQ(count, 0);
  parallel::parallel_for(7, 8, [&](std::size_t i) {
    EXPECT_EQ(i, 7u);
    ++count;
  });
  EXPECT_EQ(count, 1);
}

TEST(ParallelFor, NestedCallsDegradeGracefully) {
  std::atomic<int> total{0};
  parallel::parallel_for(
      0, 64,
      [&](std::size_t) {
        parallel::parallel_for(
            0, 64, [&](std::size_t) { total.fetch_add(1); }, 1);
      },
      1);
  EXPECT_EQ(total.load(), 64 * 64);
}

TEST(Filter, KeepsExactlyMatchingElementsInOrder) {
  amem::reset();
  amem::asym_array<int> out;
  parallel::filter<int>(
      0, 1000, [](std::size_t i) { return i % 7 == 0; },
      [](std::size_t i) { return int(i); }, out);
  ASSERT_EQ(out.size(), 143u);
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out.raw()[i], int(7 * i));
  }
}

TEST(Filter, WritesProportionalToOutputNotInput) {
  amem::reset();
  amem::asym_array<int> out;
  amem::Phase p;
  parallel::filter<int>(
      0, 100000, [](std::size_t i) { return i < 5; },
      [](std::size_t i) { return int(i); }, out);
  const auto d = p.delta();
  EXPECT_EQ(d.writes, 5u);           // the write-efficiency invariant
  EXPECT_GE(d.reads, 100000u);       // one read per candidate
}

// ---------------------------------------------------------------------------
// Exception propagation: a throwing body on a pool worker must reach the
// caller, not terminate the process. Each case needs a real pool.
// ---------------------------------------------------------------------------

#define SKIP_WITHOUT_POOL()                                        \
  if (parallel::num_threads() == 1) {                              \
    GTEST_SKIP() << "needs a pool of >= 2 threads (WECC_THREADS)"; \
  }

/// The message of the std::runtime_error `fn` throws ("" if none).
template <typename F>
std::string thrown_message(F&& fn) {
  try {
    fn();
  } catch (const std::runtime_error& e) {
    return e.what();
  }
  return "";
}

TEST(ParallelFor, ExceptionReachesCaller) {
  SKIP_WITHOUT_POOL();
  // 10000 indices at grain 16 split into pool blocks; 16 fit one inline
  // block.
  for (const std::size_t n : {std::size_t{10000}, std::size_t{16}}) {
    std::atomic<bool> thrown{false};
    const auto run = [&] {
      parallel::parallel_for(
          0, n,
          [&](std::size_t i) {
            if (i == n - 1) {
              thrown = true;
              throw std::runtime_error("last index");
            }
            // On the pool, hold the first block (bounded) until the last
            // one has thrown, so the throw happens on a thread other than
            // the one running block 0 — usually the caller.
            for (int ms = 0; i == 0 && n > 16 && !thrown && ms < 2000; ++ms) {
              std::this_thread::sleep_for(std::chrono::milliseconds(1));
            }
          },
          16);
    };
    EXPECT_EQ(thrown_message(run), "last index") << "n=" << n;
  }
}

TEST(Filter, ExceptionReachesCaller) {
  SKIP_WITHOUT_POOL();
  // 100000 candidates split into pool blocks; 100 fit one inline block.
  for (const std::size_t n : {std::size_t{100000}, std::size_t{100}}) {
    amem::asym_array<int> out;
    const auto run = [&] {
      parallel::filter<int>(
          0, n,
          [&](std::size_t i) {
            if (i == n / 2) throw std::runtime_error("candidate");
            return i % 3 == 0;
          },
          [](std::size_t i) { return int(i); }, out);
    };
    EXPECT_EQ(thrown_message(run), "candidate") << "n=" << n;
    EXPECT_EQ(out.size(), 0u);  // nothing merged past a failed block
  }
}

TEST(WorkerCappedFor, ExceptionReachesCaller) {
  SKIP_WITHOUT_POOL();
  for (const std::size_t workers :
       {parallel::num_threads(), std::size_t{2}, std::size_t{1}}) {
    std::atomic<int> ran{0};
    const auto run = [&] {
      parallel::parallel_for(
          0, 100,
          [&](std::size_t i) {
            ran.fetch_add(1);
            if (i == 37) throw std::runtime_error("cluster 37");
          },
          1, workers);
    };
    EXPECT_EQ(thrown_message(run), "cluster 37") << "workers=" << workers;
    EXPECT_GE(ran.load(), 1);
  }
}

TEST(BlockedFor, EveryBlockRunsAndTheLowestFailedBlockWins) {
  SKIP_WITHOUT_POOL();
  const std::size_t nblocks = parallel::block_count(1000, 1);
  ASSERT_GE(nblocks, 4u);
  // Repeat so the claim order (and so which failure is recorded first)
  // varies between runs; the lower block must win every time.
  for (int rep = 0; rep < 50; ++rep) {
    std::vector<std::atomic<int>> ran(nblocks);
    const auto run = [&] {
      parallel::blocked_for(
          0, 1000, 1, [&](std::size_t b, std::size_t, std::size_t) {
            ran[b].fetch_add(1);
            if (b == 1) throw std::runtime_error("block 1");
            if (b == nblocks - 1) throw std::runtime_error("last block");
          });
    };
    ASSERT_EQ(thrown_message(run), "block 1") << "rep=" << rep;
    for (std::size_t b = 0; b < nblocks; ++b) {
      ASSERT_EQ(ran[b].load(), 1) << "block " << b << " rep=" << rep;
    }
  }
}

TEST(BlockedFor, BlocksTileTheRangeInOrder) {
  for (const std::size_t n : {1u, 7u, 64u, 1000u, 100003u}) {
    std::vector<std::pair<std::size_t, std::size_t>> ranges(
        parallel::block_count(n, 16));
    parallel::blocked_for(10, 10 + n, 16,
                          [&](std::size_t b, std::size_t lo, std::size_t hi) {
                            ranges[b] = {lo, hi};
                          });
    std::size_t expect_lo = 10;
    for (const auto& [lo, hi] : ranges) {
      EXPECT_EQ(lo, expect_lo) << "n=" << n;
      EXPECT_LT(lo, hi) << "n=" << n;  // no empty blocks
      expect_lo = hi;
    }
    EXPECT_EQ(expect_lo, 10 + n) << "n=" << n;
  }
}

TEST(BlockCount, OneRuleForEveryLoop) {
  EXPECT_EQ(parallel::block_count(0, 1, 8), 0u);
  EXPECT_EQ(parallel::block_count(1, 1, 8), 1u);
  EXPECT_EQ(parallel::block_count(100, 1, 1), 1u);    // one worker: inline
  EXPECT_EQ(parallel::block_count(100, 1, 2), 16u);   // 8 blocks per worker
  EXPECT_EQ(parallel::block_count(5, 1, 4), 5u);      // never more than items
  EXPECT_EQ(parallel::block_count(64, 16, 4), 4u);    // a 64-query vector
  EXPECT_EQ(parallel::block_count(64, 64, 4), 1u);    // at grain 64: inline
  EXPECT_EQ(parallel::block_count(65, 64, 4), 2u);
  EXPECT_EQ(parallel::block_count(10, 0, 4), 10u);    // grain 0 acts as 1
}

TEST(Rng, DeterministicStreams) {
  EXPECT_EQ(parallel::hash2(1, 2), parallel::hash2(1, 2));
  EXPECT_NE(parallel::hash2(1, 2), parallel::hash2(1, 3));
  EXPECT_NE(parallel::hash2(1, 2), parallel::hash2(2, 2));
}

TEST(Rng, Uniform01InRange) {
  for (int i = 0; i < 1000; ++i) {
    const double u = parallel::uniform01(7, i);
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, BernoulliMatchesRateRoughly) {
  int hits = 0;
  constexpr int n = 20000;
  for (int i = 0; i < n; ++i) hits += parallel::bernoulli(11, i, 0.25);
  EXPECT_NEAR(hits / double(n), 0.25, 0.02);
}

TEST(Rng, ExponentialHasRequestedMean) {
  double sum = 0;
  constexpr int n = 20000;
  const double beta = 0.5;
  for (int i = 0; i < n; ++i) sum += parallel::exponential(13, i, beta);
  EXPECT_NEAR(sum / n, 1.0 / beta, 0.1);
}

TEST(Rng, StatefulRngCoversRange) {
  parallel::Rng rng(99);
  bool seen_high = false, seen_low = false;
  for (int i = 0; i < 1000; ++i) {
    const auto v = rng.next_int(100);
    ASSERT_LT(v, 100u);
    seen_high |= v >= 90;
    seen_low |= v < 10;
  }
  EXPECT_TRUE(seen_high);
  EXPECT_TRUE(seen_low);
}

}  // namespace
