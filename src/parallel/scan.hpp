// The write-efficient filter (pack) of Ben-David et al. [9].
//
// `filter` is the primitive Theorem 4.2 leans on: compacting the k cross-
// subset edges out of m candidates with O(k) asymmetric writes (plus O(m)
// reads), instead of the O(m) writes a naive flag-and-scan compaction pays.
// The implementation evaluates predicates into symmetric scratch blocks and
// only writes surviving elements to the asymmetric output.
#pragma once

#include <cstddef>
#include <vector>

#include "amem/asym_array.hpp"
#include "amem/counters.hpp"
#include "amem/sym_scratch.hpp"
#include "parallel/parallel_for.hpp"

namespace wecc::parallel {

/// Write-efficient filter: appends {i in [begin,end) : pred(i) } images
/// `out_of(i)` to `out`. Charges one read per candidate (for inspecting it)
/// and exactly one asymmetric write per surviving element. Block-local
/// buffers live in symmetric scratch; blocks are concatenated in index
/// order, so output order is deterministic.
template <typename T, typename Pred, typename OutOf>
void filter(std::size_t begin, std::size_t end, Pred&& pred, OutOf&& out_of,
            wecc::amem::asym_array<T>& out) {
  const auto buf = gather_blocks<T>(
      begin, end, kDefaultGrain,
      [&](std::size_t lo, std::size_t hi, std::vector<T>& local) {
        wecc::amem::SymScratch scratch(0);
        for (std::size_t i = lo; i < hi; ++i) {
          wecc::amem::count_read();
          if (pred(i)) {
            local.push_back(out_of(i));
            scratch.grow(sizeof(T) / sizeof(std::size_t) + 1);
          }
        }
      });

  std::size_t total = 0;
  for (const auto& b : buf) total += b.size();
  out.reserve(out.size() + total);
  for (const auto& b : buf) {
    for (const T& v : b) out.push_back(v);  // one counted write each
  }
}

}  // namespace wecc::parallel
