// Candidate-list entry: (distance, id) with the "checked" flag packed into
// the id's top bit — the layout the GPU kernels keep in shared memory
// (8 bytes/entry, see simgpu::kListEntryBytes). An empty entry carries
// +inf: KV::empty() (KV{}) is its only constructor, and KV::make takes a
// real id only.
#pragma once

#include <cassert>
#include <cmath>
#include <cstdint>

#include "common/types.hpp"

namespace algas {

struct KV {
  float dist = kInfDist;
  std::uint32_t key = kInvalidNode;  // node id | checked flag

  static constexpr std::uint32_t kCheckedBit = 0x80000000u;
  /// Node ids must stay below this so the flag bit never aliases an id.
  static constexpr std::uint32_t kMaxNodeId = kCheckedBit - 1;

  static KV empty() { return KV{}; }

  static KV make(float d, NodeId id) {
    assert(id <= kMaxNodeId);  // never an empty's key, never the flag
    return KV{d, static_cast<std::uint32_t>(id)};
  }

  bool is_empty() const { return key == kInvalidNode; }
  NodeId id() const { return key & ~kCheckedBit; }
  bool checked() const { return (key & kCheckedBit) != 0; }
  void mark_checked() { key |= kCheckedBit; }

  /// The one order of queries and builders: ascending distance (±0 equal),
  /// ties by id, NaN after every number, empties last; the checked flag
  /// never counts. Distinct distances decide in the first two comparisons.
  /// Comparing distances first is exact because an empty's +inf is at or
  /// past every number, so only +inf and NaN keys reach the empty rule.
  friend bool operator<(const KV& a, const KV& b) {
    if (a.dist < b.dist) return true;
    if (b.dist < a.dist) return false;
    if (a.is_empty() != b.is_empty()) return b.is_empty();
    if (std::isnan(a.dist) != std::isnan(b.dist)) return std::isnan(b.dist);
    return a.id() < b.id();
  }
};

}  // namespace algas
