// The accept-step predicate — one view over the attribute filter and the
// streaming-delete tombstones, so the search layer takes no raw set pointer.
//
// Filtered search (attribute predicates), streaming deletes (tombstones),
// and their conjunction all share one traversal contract: a rejected node
// KEEPS ROUTING — it stays in the candidate list and is expanded like any
// other node, keeping the graph navigable — but the accept step
// (IntraCtaSearch::results, merge_sorted_runs) never surfaces it in the
// TopK. AcceptPredicate packages that contract behind a single O(1)
// `accepts(node_id)` view cheap enough to sit inside the simulated kernel's
// merge loop: two pointer checks and at most one bitset probe plus one
// generation-stamp compare per candidate. The filter is a NodeBitset (one
// bit per base row, built on the host) and the tombstones a StampedSet, the
// two node-set representations of common/node_set.hpp.
//
// The null predicate (default-constructed) accepts everything and leaves
// every accept path byte-identical to the unfiltered build — the same
// pinned guarantee the null tombstone set carried before this API existed.
//
// Predicates are value types holding non-owning pointers: the bitset and
// tombstone set must outlive every engine run that consults the predicate.
// Like the other published value structs (SharedMemoryLayout, configs),
// the fields are ALGAS_IMMUTABLE_AFTER_PUBLISH: build the predicate as a
// function-local value, hand it to a SearchConfig, and never mutate it
// afterwards — tools/algas_lint rejects writes from outside the class.
#pragma once

#include <cstddef>

#include "common/node_set.hpp"
#include "common/ownership.hpp"
#include "common/types.hpp"

namespace algas::search {

/// The accept-step predicate: an optional attribute filter (bitset), an
/// optional tombstone set, and their conjunction — a node is accepted only
/// when every attached component accepts it. Both components are consulted
/// with the same out-of-range convention the tombstone accept step always
/// used: ids past a component's size are accepted (appended rows the
/// structure has not grown to cover are live by definition).
class AcceptPredicate {
 public:
  /// Null predicate: accepts every id, byte-identical accept paths.
  AcceptPredicate() = default;

  explicit AcceptPredicate(const NodeBitset* filter,
                           const StampedSet* tombstones = nullptr)
      : filter_(filter), tombset_(tombstones) {}

  /// Tombstones-only predicate — what MutableIndex::serve attaches.
  static AcceptPredicate deleted_only(const StampedSet* tombstones) {
    return AcceptPredicate(nullptr, tombstones);
  }

  /// This predicate with the tombstone component replaced — how a mutable
  /// index conjoins its deletion set with a caller's attribute filter.
  AcceptPredicate with_tombstones(const StampedSet* tombstones) const {
    AcceptPredicate p = *this;
    p.tombset_ = tombstones;
    return p;
  }

  /// Shard-local view: accepts(local) consults the global structures at
  /// `local + offset`. Contiguous id-range partitioning makes a per-shard
  /// predicate exactly one offset add (dataset/partitioner).
  AcceptPredicate with_offset(std::size_t offset) const {
    AcceptPredicate p = *this;
    p.offset_ += offset;
    return p;
  }

  /// True when nothing is attached: every accept path must then be
  /// byte-identical to the pre-predicate engine.
  bool null() const { return filter_ == nullptr && tombset_ == nullptr; }

  bool has_filter() const { return filter_ != nullptr; }
  bool has_tombstones() const { return tombset_ != nullptr; }
  const NodeBitset* filter() const { return filter_; }
  const StampedSet* tombstones() const { return tombset_; }
  std::size_t offset() const { return offset_; }

  /// O(1) accept check — the only call the kernel-side accept step makes.
  bool accepts(NodeId v) const {
    const std::size_t g = static_cast<std::size_t>(v) + offset_;
    if (tombset_ != nullptr && g < tombset_->size() &&
        tombset_->contains(static_cast<NodeId>(g))) {
      return false;
    }
    if (filter_ != nullptr && g < filter_->size() &&
        !filter_->test(static_cast<NodeId>(g))) {
      return false;
    }
    return true;
  }

  /// Accepted ids within local range [begin, end) — exact, O(end - begin).
  std::size_t accepted_in_range(std::size_t begin, std::size_t end) const {
    std::size_t n = 0;
    for (std::size_t v = begin; v < end; ++v) {
      if (accepts(static_cast<NodeId>(v))) ++n;
    }
    return n;
  }

  /// Exact fraction of the local id space [0, num_nodes) this predicate
  /// accepts — what selectivity-aware beam widening scales by. 1.0 for the
  /// null predicate or an empty id space.
  double selectivity(std::size_t num_nodes) const {
    if (null() || num_nodes == 0) return 1.0;
    return static_cast<double>(accepted_in_range(0, num_nodes)) /
           static_cast<double>(num_nodes);
  }

 private:
  // Non-owning, set at construction, immutable after the predicate is
  // published into a SearchConfig (lint rule `ownership`).
  const NodeBitset* filter_ ALGAS_IMMUTABLE_AFTER_PUBLISH = nullptr;
  const StampedSet* tombset_ ALGAS_IMMUTABLE_AFTER_PUBLISH = nullptr;
  std::size_t offset_ ALGAS_IMMUTABLE_AFTER_PUBLISH = 0;
};

}  // namespace algas::search
