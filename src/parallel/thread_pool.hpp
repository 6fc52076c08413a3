// Minimal fork-join thread pool standing in for the paper's Cilk runtime.
//
// The Asymmetric NP model's currency is work (reads + omega*writes) and
// depth; the scheduler only affects wall-clock. We therefore keep the pool
// simple: a fixed set of workers executing blocked ranges, with the calling
// thread participating. Thread count defaults to hardware_concurrency()
// (env override WECC_THREADS; set to 1 for fully deterministic sequential
// execution).
#pragma once

#include <cstddef>
#include <functional>

namespace wecc::parallel {

/// Number of workers the pool was configured with (>= 1).
std::size_t num_threads();

/// Force the pool size before first use (tests; ignored after first use).
void set_num_threads(std::size_t n);

namespace detail {
/// Run fn(t) for t in [0, ntasks) across the pool; blocks until all done.
/// Tasks are claimed dynamically, so ntasks may exceed num_threads(); the
/// surplus tasks run on whichever threads free up first. `fn` never throws:
/// the only caller is blocked_for (parallel/parallel_for.hpp), which catches
/// every block body's exception and rethrows the lowest-indexed one on the
/// calling thread after the loop joins.
void run_tasks(std::size_t ntasks, const std::function<void(std::size_t)>& fn);
}  // namespace detail

}  // namespace wecc::parallel
