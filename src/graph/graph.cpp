#include "graph/graph.hpp"

#include <deque>
#include <limits>

#include "common/binary_io.hpp"
#include "common/node_set.hpp"

namespace algas {

std::size_t Graph::valid_degree(NodeId v) const {
  std::size_t count = 0;
  for (NodeId n : neighbors(v)) {
    if (n != kInvalidNode) ++count;
  }
  return count;
}

Graph::Stats Graph::stats() const {
  Stats s;
  if (num_nodes_ == 0) return s;
  s.min_degree = degree_;
  double total = 0.0;
  for (NodeId v = 0; v < num_nodes_; ++v) {
    const std::size_t d = valid_degree(v);
    total += static_cast<double>(d);
    s.min_degree = std::min(s.min_degree, d);
    s.max_degree = std::max(s.max_degree, d);
  }
  s.avg_degree = total / static_cast<double>(num_nodes_);

  NodeBitset seen(num_nodes_);
  std::deque<NodeId> frontier{entry_point_};
  seen.set(entry_point_);
  std::size_t reached = 1;
  while (!frontier.empty()) {
    const NodeId v = frontier.front();
    frontier.pop_front();
    for (NodeId n : neighbors(v)) {
      if (n == kInvalidNode || seen.test(n)) continue;
      seen.set(n);
      ++reached;
      frontier.push_back(n);
    }
  }
  s.reachable_fraction =
      static_cast<double>(reached) / static_cast<double>(num_nodes_);
  return s;
}

namespace {
constexpr char kMagic[8] = {'A', 'L', 'G', 'A', 'S', 'G', 'R', '1'};
}

void Graph::write(BinaryWriter& w) const {
  w.bytes(kMagic, sizeof(kMagic));
  w.pod(static_cast<std::uint64_t>(num_nodes_));
  w.pod(static_cast<std::uint64_t>(degree_));
  w.pod(entry_point_);
  w.bytes(adj_.data(), adj_.size() * sizeof(NodeId));
}

void Graph::save(const std::string& path) const {
  BinaryWriter w("graph", path);
  write(w);
  w.finish();
}

Graph Graph::read(BinaryReader& r) {
  r.magic(kMagic, "not an ALGAS graph");
  const auto n = r.pod<std::uint64_t>("graph header");
  const auto d = r.pod<std::uint64_t>("graph header");
  const auto ep = r.pod<NodeId>("graph header");
  // Node ids are u32, the entry must be a node, and a node with no
  // neighbour slots is unreachable (no builder writes one).
  if (n > std::numeric_limits<NodeId>::max() ||
      (n > 0 && (d == 0 || ep >= n))) {
    r.fail("header declares " + std::to_string(n) + " nodes of degree " +
           std::to_string(d) + ", entry " + std::to_string(ep));
  }
  // Divide rather than multiply: n x d may overflow.
  if (n > 0 && d > r.left() / sizeof(NodeId) / n) {
    r.fail("adjacency declares " + std::to_string(n) + " x " +
           std::to_string(d) + " entries but " + std::to_string(r.left()) +
           " bytes remain");
  }
  Graph g(static_cast<std::size_t>(n), static_cast<std::size_t>(d));
  if (n > 0) g.set_entry_point(ep);
  r.bytes(g.adj_.data(), g.adj_.size() * sizeof(NodeId), "adjacency");
  for (const NodeId id : g.adj_) {
    if (id != kInvalidNode && id >= n) {
      r.fail("neighbor id " + std::to_string(id) + " out of range for " +
             std::to_string(n) + " nodes");
    }
  }
  return g;
}

Graph Graph::load(const std::string& path) {
  BinaryReader r("graph", path);
  Graph g = read(r);
  r.finish();
  return g;
}

}  // namespace algas
