// Fixed-capacity sorted candidate list — the kernel's central shared-memory
// structure and the builders' beam (build_beam_search). Any capacity L >= 1
// works: the query path's L is a power of two for the kernel's bitonic
// network (search::normalize_config), a builder's is ef. Entries stay in KV
// order. Maintenance (merging a sorted expand list, keeping the top L)
// models the kernel's reversed-concatenate + 2L bitonic merge: the modeled
// cost charges that network, while the host executes a bounded linear merge
// that produces the identical array (see DESIGN.md, "Modeled time vs. host
// wall-clock").
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "search/kv.hpp"

namespace algas::search {

class CandidateList {
 public:
  explicit CandidateList(std::size_t capacity);  // throws on 0

  std::size_t capacity() const { return entries_.size(); }

  void reset();

  /// Seed with one starting point (keeps list sorted).
  void seed(KV entry);

  /// Collect up to `max_count` best unchecked entry indices (ascending by
  /// distance) and mark them checked. Returns number collected; 0 means the
  /// list is exhausted — the search-termination condition. The beam extend
  /// step uses max_count = beam width; greedy uses 1.
  std::size_t take_unchecked(std::size_t max_count,
                             std::span<std::size_t> out_indices);

  const KV& at(std::size_t i) const { return entries_[i]; }

  /// Merge an ascending-sorted expand list into the candidate list, keeping
  /// the best L entries. expand.size() must be <= capacity(). Returns the
  /// network size the merge ran at (for cost accounting). The list moves to
  /// the other buffer: earlier at()/entries() views are stale.
  std::size_t merge_sorted(std::span<const KV> expand);

  std::span<const KV> entries() const { return entries_; }

  /// First k non-empty entries (ascending).
  std::vector<KV> topk(std::size_t k) const;

 private:
  std::vector<KV> entries_;
  std::vector<KV> scratch_;  // L-entry merge target, swapped with entries_
};

}  // namespace algas::search
