// The blocked parallel loop every pool loop goes through.
//
// This is the Fork-instruction workhorse of the Asymmetric NP algorithms:
// every "in parallel, for each vertex ..." step in the paper lowers to one
// blocked_for. It owns the whole contract of a parallel loop, so no caller
// spells any of it out:
//
//  * the block-count rule (block_count): ceil(n / grain) blocks, at most
//    kBlocksPerWorker per worker, one block — an inline loop — when that
//    leaves a single block or a single worker. With WECC_THREADS=1 every
//    loop is therefore an exact sequential loop, which tests use for
//    deterministic counter checks;
//  * dynamic claiming: one pool task per worker pulls blocks from a shared
//    counter, so skewed per-item cost (dirty clusters, lex-BFS searches)
//    load-balances;
//  * an optional per-call worker cap (the dynamic facades' rebuild_threads
//    knob must not reconfigure the process-wide pool). A cap above the pool
//    size is allowed; the pool runs the surplus workers' claims on whichever
//    threads free up;
//  * exception propagation: a body that throws poisons only its own block,
//    every other block still runs, and after the loop joins the exception
//    of the lowest-indexed failed block is rethrown on the caller. The
//    dynamic facades run these loops while staging an epoch under the
//    strong exception guarantee, so a worker's throw has to unwind the
//    staging, not terminate the process.
//
// Determinism contract: blocks run concurrently in claim order. Callers
// keep output deterministic by writing only their own disjoint slots and
// merging across blocks serially in block order afterwards.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <exception>
#include <functional>
#include <limits>
#include <mutex>
#include <vector>

#include "parallel/thread_pool.hpp"

namespace wecc::parallel {

inline constexpr std::size_t kDefaultGrain = 1024;
inline constexpr std::size_t kBlocksPerWorker = 8;

/// Number of blocks a loop over `n` items at `grain` splits into for
/// `workers` workers (0 = the pool size). Every block is non-empty.
[[nodiscard]] inline std::size_t block_count(std::size_t n, std::size_t grain,
                                             std::size_t workers = 0) {
  if (n == 0) return 0;
  if (workers == 0) workers = num_threads();
  if (workers == 1) return 1;
  grain = std::max<std::size_t>(grain, 1);
  return std::min((n + grain - 1) / grain, workers * kBlocksPerWorker);
}

/// body(b, lo, hi) for every block b of [begin, end), where [lo, hi) is the
/// block's index range and blocks are numbered in index order. `workers`
/// caps the pool tasks claiming blocks (0 = the pool size, 1 = inline).
template <typename F>
void blocked_for(std::size_t begin, std::size_t end, std::size_t grain,
                 F&& body, std::size_t workers = 0) {
  if (begin >= end) return;
  const std::size_t n = end - begin;
  if (workers == 0) workers = num_threads();
  const std::size_t nblocks = block_count(n, grain, workers);
  if (nblocks == 1) {
    body(std::size_t{0}, begin, end);
    return;
  }
  // Near-equal blocks: the first n % nblocks get one extra item.
  const std::size_t q = n / nblocks, r = n % nblocks;
  const auto lo = [&](std::size_t b) { return begin + b * q + std::min(b, r); };
  std::atomic<std::size_t> next{0};
  std::mutex error_mu;
  std::size_t failed = std::numeric_limits<std::size_t>::max();
  std::exception_ptr error;
  const auto claim = [&] {
    for (;;) {
      const std::size_t b = next.fetch_add(1, std::memory_order_relaxed);
      if (b >= nblocks) return;
      try {
        body(b, lo(b), lo(b + 1));
      } catch (...) {
        const std::lock_guard<std::mutex> lk(error_mu);
        if (b < failed) {
          failed = b;
          error = std::current_exception();
        }
      }
    }
  };
  // One captured reference keeps the closure inside std::function's
  // small-object buffer: the non-throwing path allocates nothing here.
  const std::function<void(std::size_t)> task = [&claim](std::size_t) {
    claim();
  };
  detail::run_tasks(std::min(workers, nblocks), task);
  if (error) std::rethrow_exception(error);
}

/// fn(i) for i in [begin, end): the per-index form of blocked_for.
template <typename F>
void parallel_for(std::size_t begin, std::size_t end, F&& fn,
                  std::size_t grain = kDefaultGrain, std::size_t workers = 0) {
  blocked_for(
      begin, end, grain,
      [&fn](std::size_t, std::size_t lo, std::size_t hi) {
        for (std::size_t i = lo; i < hi; ++i) fn(i);
      },
      workers);
}

/// Per-block gather: fn(lo, hi, local) appends block [lo, hi)'s results to
/// its own buffer. Returns the buffers in block order, so a serial merge
/// over them sees the results in index order for any thread count.
template <typename T, typename F>
std::vector<std::vector<T>> gather_blocks(std::size_t begin, std::size_t end,
                                          std::size_t grain, F&& fn) {
  std::vector<std::vector<T>> out(
      begin < end ? block_count(end - begin, grain) : 0);
  blocked_for(begin, end, grain,
              [&](std::size_t b, std::size_t lo, std::size_t hi) {
                fn(lo, hi, out[b]);
              });
  return out;
}

}  // namespace wecc::parallel
