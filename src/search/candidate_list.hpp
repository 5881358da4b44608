// Fixed-capacity sorted candidate list — the kernel's central shared-memory
// structure and the builders' beam (build_beam_search). Any capacity L >= 1
// works: the query path's L is a power of two for the kernel's bitonic
// network (search::normalize_config), a builder's is ef. Entries stay in KV
// order. Maintenance (merging a sorted expand list, keeping the top L)
// models the kernel's reversed-concatenate + 2L bitonic merge: the modeled
// cost charges that network, while the host touches only what can change —
// callers drop the expand entries that cannot enter (can_enter), the merge
// rewrites the list from the first slot that moves, and take_unchecked scans
// from a cursor. The array is identical to the network's (see DESIGN.md,
// "Modeled time vs. host wall-clock").
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

  /// Whether `e` can enter: it is below the last entry. Empties sort last,
  /// so a list with room admits every key; an entry this rejects would be
  /// dropped by every later merge too, since merges only lower the last
  /// entry.
  bool can_enter(const KV& e) const { return e < entries_.back(); }

  /// Collect up to `max_count` best unchecked entry indices (ascending by
  /// distance) and mark them checked. Returns number collected; 0 means the
  /// list is exhausted — the search-termination condition. The beam extend
  /// step uses max_count = beam width; greedy uses 1. The scan starts at a
  /// cursor below which every entry is checked.
  std::size_t take_unchecked(std::size_t max_count,
                             std::span<std::size_t> out_indices);

  const KV& at(std::size_t i) const { return entries_[i]; }

  /// Merge an ascending-sorted expand list into the candidate list, keeping
  /// the best L entries, in place: the largest entries of the union are
  /// dropped and the rest merged into the vacated tail, so entries in front
  /// of the first one that moves are never written. An empty expand list
  /// leaves the list as it is. expand.size() must be <= capacity(). Returns
  /// the network size the kernel's merge runs at, 2L (for cost accounting).
  std::size_t merge_sorted(std::span<const KV> expand);

  std::span<const KV> entries() const { return entries_; }

  /// First k non-empty entries (ascending).
  std::vector<KV> topk(std::size_t k) const;

 private:
  std::vector<KV> entries_;
  std::size_t cursor_ = 0;  // every entry below it is checked
};

}  // namespace algas::search
