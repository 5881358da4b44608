// Fixed out-degree proximity graph.
//
// Both graph types the paper evaluates (NSW-GANNS and CAGRA) are stored in
// this GPU-friendly layout: a dense `n x degree` adjacency matrix so a CTA
// fetches a node's whole neighbor row with one coalesced read. Rows with
// fewer real neighbors pad with kInvalidNode.
//
// The graph is growable: streaming insertion (core::MutableIndex) appends
// all-padding rows with grow() and fills them during the link phase.
// Node ids are stable across growth; only compaction remaps them.
//
// Beside each row the graph keeps one derived byte, the row's diverse
// prefix (graph/neighbor_selection.hpp): how many leading members the
// diversity test kept when select_neighbors last wrote the row. Only
// select_neighbors records it; every other writer resets it to unknown —
// mutable_neighbors(), grow() (new rows), construction and load() — so
// code that edits rows need not know it exists. It is never saved: .agr
// files and snapshots hold adjacency only, and a loaded row pays one
// hint-free re-selection before it has a prefix again.
#pragma once

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <vector>

#include "common/types.hpp"

namespace algas {

class Graph {
 public:
  Graph() = default;
  Graph(std::size_t num_nodes, std::size_t degree)
      : num_nodes_(num_nodes),
        degree_(degree),
        adj_(num_nodes * degree, kInvalidNode),
        prefix_(num_nodes, kUnknownPrefix) {}

  std::size_t num_nodes() const { return num_nodes_; }
  std::size_t degree() const { return degree_; }

  std::span<const NodeId> neighbors(NodeId v) const {
    assert(static_cast<std::size_t>(v) < num_nodes_ && "node id out of range");
    return {adj_.data() + static_cast<std::size_t>(v) * degree_, degree_};
  }
  /// Writable row v. Resets the row's diverse prefix to unknown: a caller
  /// that edits the row may break it. Read the prefix first.
  std::span<NodeId> mutable_neighbors(NodeId v) {
    assert(static_cast<std::size_t>(v) < num_nodes_ && "node id out of range");
    prefix_[v] = kUnknownPrefix;
    return {adj_.data() + static_cast<std::size_t>(v) * degree_, degree_};
  }

  /// diverse_prefix() of a row no selection has recorded. One byte holds
  /// prefixes up to 254, so every degree up to 254 keeps its hints; a
  /// larger row simply stays unknown.
  static constexpr std::size_t kUnknownPrefix = 0xff;

  /// How many leading members of row v the diversity test kept when
  /// select_neighbors last wrote it, or kUnknownPrefix.
  std::size_t diverse_prefix(NodeId v) const {
    assert(static_cast<std::size_t>(v) < num_nodes_ && "node id out of range");
    return prefix_[v];
  }
  /// Record row v's diverse prefix (select_neighbors only).
  void set_diverse_prefix(NodeId v, std::size_t len) {
    assert(static_cast<std::size_t>(v) < num_nodes_ && "node id out of range");
    prefix_[v] = static_cast<std::uint8_t>(std::min(len, kUnknownPrefix));
  }

  /// Append `count` nodes whose rows are all padding. Existing rows are
  /// preserved byte-for-byte and ids are stable, so a grown graph's prefix
  /// serves queries unchanged while the new rows await linking.
  void grow(std::size_t count) {
    num_nodes_ += count;
    adj_.resize(num_nodes_ * degree_, kInvalidNode);
    prefix_.resize(num_nodes_, kUnknownPrefix);
  }

  /// Count of non-padding neighbors of v.
  std::size_t valid_degree(NodeId v) const;

  /// Default entry point for searches: the medoid-ish fixed node 0 works
  /// poorly; builders set this to a computed center. Returns kInvalidNode
  /// when no valid entry exists (empty graph) — searches must check before
  /// seeding a traversal.
  NodeId entry_point() const {
    return static_cast<std::size_t>(entry_point_) < num_nodes_ ? entry_point_
                                                               : kInvalidNode;
  }
  void set_entry_point(NodeId p) {
    assert(static_cast<std::size_t>(p) < num_nodes_ && "entry out of range");
    entry_point_ = p;
  }

  struct Stats {
    double avg_degree = 0.0;
    std::size_t min_degree = 0;
    std::size_t max_degree = 0;
    /// Fraction of nodes reachable from the entry point via BFS.
    double reachable_fraction = 0.0;
  };
  Stats stats() const;

  void save(const std::string& path) const;
  /// Stream variant so snapshot formats (core::MutableIndex) can embed a
  /// graph section; `context` names the destination in error messages.
  void save(std::ostream& out, const std::string& context) const;

  /// Loading validates the file end to end — bad magic, truncated header or
  /// payload, trailing bytes, an out-of-range entry point, or adjacency
  /// entries that are neither padding nor valid node ids all throw
  /// std::runtime_error with a message naming the file and the defect.
  static Graph load(const std::string& path);
  static Graph load(std::istream& in, const std::string& context);

  const std::vector<NodeId>& adjacency() const { return adj_; }

 private:
  std::size_t num_nodes_ = 0;
  std::size_t degree_ = 0;
  NodeId entry_point_ = 0;
  std::vector<NodeId> adj_;
  /// Per-row diverse prefix, kUnknownPrefix when unknown. Derived from the
  /// rows, so copies carry it and save() drops it.
  std::vector<std::uint8_t> prefix_;
};

}  // namespace algas
