#include "graph/graph.hpp"

#include <cstring>
#include <deque>
#include <fstream>
#include <limits>
#include <stdexcept>

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

void Graph::save(std::ostream& out, const std::string& context) const {
  out.write(kMagic, sizeof(kMagic));
  const std::uint64_t n = num_nodes_, d = degree_;
  const std::uint32_t ep = entry_point_;
  out.write(reinterpret_cast<const char*>(&n), sizeof(n));
  out.write(reinterpret_cast<const char*>(&d), sizeof(d));
  out.write(reinterpret_cast<const char*>(&ep), sizeof(ep));
  out.write(reinterpret_cast<const char*>(adj_.data()),
            static_cast<std::streamsize>(adj_.size() * sizeof(NodeId)));
  if (!out) throw std::runtime_error("short write to " + context);
}

void Graph::save(const std::string& path) const {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) throw std::runtime_error("cannot open " + path + " for write");
  save(out, path);
}

Graph Graph::load(std::istream& in, const std::string& context) {
  char magic[8];
  if (!in.read(magic, sizeof(magic)) ||
      std::memcmp(magic, kMagic, sizeof(kMagic)) != 0) {
    throw std::runtime_error("not an ALGAS graph file: " + context);
  }
  std::uint64_t n = 0, d = 0;
  std::uint32_t ep = 0;
  if (!in.read(reinterpret_cast<char*>(&n), sizeof(n)) ||
      !in.read(reinterpret_cast<char*>(&d), sizeof(d)) ||
      !in.read(reinterpret_cast<char*>(&ep), sizeof(ep))) {
    throw std::runtime_error("truncated graph header in " + context);
  }
  // Node ids are u32, so a header claiming more nodes than NodeId can index
  // (or an n*d payload that overflows size_t) is corrupt, not merely big.
  if (n > std::numeric_limits<NodeId>::max()) {
    throw std::runtime_error("corrupt graph header in " + context +
                             ": node count overflows NodeId");
  }
  if (d != 0 && n > std::numeric_limits<std::size_t>::max() /
                        (d * sizeof(NodeId))) {
    throw std::runtime_error("corrupt graph header in " + context +
                             ": adjacency size overflows");
  }
  if (n > 0 && ep >= n) {
    throw std::runtime_error("corrupt graph header in " + context +
                             ": entry point " + std::to_string(ep) +
                             " out of range for " + std::to_string(n) +
                             " nodes");
  }
  Graph g(static_cast<std::size_t>(n), static_cast<std::size_t>(d));
  if (n > 0) g.set_entry_point(ep);
  if (!g.adj_.empty() &&
      !in.read(reinterpret_cast<char*>(g.adj_.data()),
               static_cast<std::streamsize>(g.adj_.size() * sizeof(NodeId)))) {
    throw std::runtime_error("truncated graph payload in " + context);
  }
  for (const NodeId id : g.adj_) {
    if (id != kInvalidNode && static_cast<std::uint64_t>(id) >= n) {
      throw std::runtime_error("corrupt graph payload in " + context +
                               ": neighbor id " + std::to_string(id) +
                               " out of range for " + std::to_string(n) +
                               " nodes");
    }
  }
  return g;
}

Graph Graph::load(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  Graph g = load(in, path);
  if (in.peek() != std::ifstream::traits_type::eof()) {
    throw std::runtime_error("trailing bytes after graph payload in " + path);
  }
  return g;
}

}  // namespace algas
