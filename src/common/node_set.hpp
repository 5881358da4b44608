// The two node-set representations every layer shares.
//
// StampedSet: a generation-stamped set with an O(1) clear(). It is the
// per-query visited table all CTAs of a slot share (§IV-B step ①), the
// builders' per-thread visited table, and the streaming index's tombstones.
// A node is a member when its 16-bit stamp equals the current generation, so
// clear() retires every member by bumping the generation instead of an O(n)
// memset: once per search for a visited table, once per compaction epoch for
// the tombstones. This changes HOST time only: the engines still charge the
// GPU's bitmap memset as modeled time via search::visited_clear_words x
// bitmap_clear_per_word_ns (DESIGN.md "Modeled time vs. host wall-clock").
//
// NodeBitset: a dense bit per node, for sets that are built once and then
// probed: attribute filters (search::AcceptPredicate), and the reachability
// marks of CAGRA's stitch passes and Graph::stats. A 1M-node set costs
// 128 KiB and a probe is one word load plus a shift.
#pragma once

#include <algorithm>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/ownership.hpp"
#include "common/types.hpp"

namespace algas {

class StampedSet {
 public:
  /// Stamp width bounds the epochs between forced full clears; 16 bits
  /// keeps the set 2 bytes/node and makes the wraparound path testable.
  using Generation = std::uint16_t;

  StampedSet() = default;
  explicit StampedSet(std::size_t num_nodes) : stamps_(num_nodes, 0) {}

  /// Growing preserves the current epoch: existing members and the
  /// generation survive, and the appended nodes start at stamp 0 (never a
  /// member, since the live generation is always >= 1). Streaming inserts
  /// grow both sets on every publish, so discarding the epoch here would
  /// force a full O(n) re-stamp per growth. Shrinking (or resizing to the
  /// same count) resets everything: ids only shrink under a compaction
  /// remap, which invalidates old marks wholesale.
  void resize(std::size_t num_nodes) {
    if (num_nodes > stamps_.size()) {
      stamps_.resize(num_nodes, 0);
      return;
    }
    stamps_.assign(num_nodes, 0);
    generation_ = 1;
    count_ = 0;
  }

  /// Add node v; returns true when it was not yet a member. For the
  /// visited table this is the GPU's atomicOr check in step 2 of the
  /// search: false means another CTA already claimed the node.
  bool insert(NodeId v) {
    assert(static_cast<std::size_t>(v) < stamps_.size());
    if (stamps_[v] == generation_) return false;
    stamps_[v] = generation_;
    ++count_;
    return true;
  }

  bool contains(NodeId v) const {
    assert(static_cast<std::size_t>(v) < stamps_.size());
    return stamps_[v] == generation_;
  }

  /// O(1): start a new epoch. Only on generation wraparound does the whole
  /// stamp array reset (once every 65535 clears).
  void clear() {
    count_ = 0;
    if (++generation_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), Generation{0});
      generation_ = 1;
    }
  }

  std::size_t size() const { return stamps_.size(); }
  /// Members of the current epoch.
  std::size_t count() const { return count_; }
  Generation generation() const { return generation_; }

  /// Members in ascending order — the tombstones' serialization form
  /// (core::MutableIndex snapshots store ids, not stamps, so the on-disk
  /// bytes are independent of generation history).
  std::vector<NodeId> ids() const {
    std::vector<NodeId> out;
    out.reserve(count_);
    for (std::size_t v = 0; v < stamps_.size(); ++v) {
      if (stamps_[v] == generation_) out.push_back(static_cast<NodeId>(v));
    }
    return out;
  }

 private:
  /// Stamp validity is relative to generation_, so clear() retires a whole
  /// epoch in O(1). Only the member functions write these; which actor may
  /// call them is stated on the owning field (SlotRuntime::visited,
  /// core::MutableIndex::tombstones_).
  std::vector<Generation> stamps_ ALGAS_GUARDED_BY_EPOCH(StampedSet);
  Generation generation_ ALGAS_OWNED_BY(StampedSet) = 1;  // 0 = never
  std::size_t count_ ALGAS_OWNED_BY(StampedSet) = 0;
};

class NodeBitset {
 public:
  NodeBitset() = default;
  explicit NodeBitset(std::size_t num_nodes, bool value = false)
      : bits_(num_nodes),
        words_((num_nodes + 63) / 64,
               value ? ~std::uint64_t{0} : std::uint64_t{0}) {
    trim_tail();
  }

  void set(NodeId v) { words_[word(v)] |= bit(v); }
  void reset(NodeId v) { words_[word(v)] &= ~bit(v); }
  bool test(NodeId v) const { return (words_[word(v)] & bit(v)) != 0; }

  /// Set bit v; returns its previous value.
  bool test_and_set(NodeId v) {
    const bool was = test(v);
    set(v);
    return was;
  }

  void clear() { std::fill(words_.begin(), words_.end(), std::uint64_t{0}); }

  std::size_t size() const { return bits_; }

  /// Number of set bits — the numerator of a selectivity estimate.
  std::size_t count() const {
    std::size_t n = 0;
    for (const std::uint64_t w : words_) n += std::popcount(w);
    return n;
  }

 private:
  static std::size_t word(NodeId v) { return static_cast<std::size_t>(v) >> 6; }
  static std::uint64_t bit(NodeId v) { return std::uint64_t{1} << (v & 63); }
  /// Keep bits past bits_ clear so count() needs no tail mask.
  void trim_tail() {
    const std::size_t tail = bits_ & 63;
    if (tail != 0 && !words_.empty()) {
      words_.back() &= (std::uint64_t{1} << tail) - 1;
    }
  }

  std::size_t bits_ ALGAS_OWNED_BY(NodeBitset) = 0;
  std::vector<std::uint64_t> words_ ALGAS_OWNED_BY(NodeBitset);
};

}  // namespace algas
