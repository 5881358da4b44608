#include "graph/builder.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <queue>
#include <sstream>
#include <stdexcept>

#include "common/env.hpp"
#include "common/node_set.hpp"
#include "common/thread_pool.hpp"
#include "dataset/io.hpp"
#include "graph/cagra_builder.hpp"
#include "graph/nsw_builder.hpp"

namespace algas {

namespace {
/// Rows per distance_batch_range call in full-base scans: large enough to
/// amortize dispatch, small enough that the output block stays in L1.
constexpr std::size_t kScanChunk = 256;

double seconds_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double>(dt).count();
}
}  // namespace

std::string graph_kind_name(GraphKind k) {
  switch (k) {
    case GraphKind::kNsw: return "NSW";
    case GraphKind::kCagra: return "CAGRA";
  }
  return "unknown";
}

BuildReport build_graph(GraphKind kind, const Dataset& ds,
                        const BuildConfig& cfg) {
  const auto t0 = std::chrono::steady_clock::now();
  BuildReport report;
  switch (kind) {
    case GraphKind::kNsw: report = build_nsw(ds, cfg); break;
    case GraphKind::kCagra: report = build_cagra(ds, cfg); break;
    default: throw std::invalid_argument("unknown graph kind");
  }
  report.wall_build_s = seconds_since(t0);
  return report;
}

BuildReport load_or_build_graph(GraphKind kind, const Dataset& ds,
                                const BuildConfig& cfg) {
  const std::string dir = cache_dir();
  std::string path;
  if (!dir.empty()) {
    std::ostringstream out;
    out << dir << "/graph_v3_" << graph_kind_name(kind) << "_" << ds.name()
        << "_n" << ds.num_base() << "_d" << cfg.degree << "_ef"
        << cfg.ef_construction;
    // Quantized builds score different floats and link different edges, so
    // they must not collide with the f32 cache. f32 keeps the historical
    // key (existing caches stay valid).
    if (ds.storage() != StorageCodec::kF32) {
      out << "_s" << storage_codec_name(ds.storage());
    }
    // The batch structure shapes the graph (each batch searches the frozen
    // prefix), so non-default batches get their own entries. The thread
    // count never appears: builds are byte-identical across thread counts.
    if (cfg.insert_batch != BuildConfig{}.insert_batch) {
      out << "_b" << cfg.insert_batch;
    }
    out << ".agr";
    path = out.str();
    if (file_exists(path)) {
      const auto t0 = std::chrono::steady_clock::now();
      BuildReport report;
      report.graph = Graph::load(path);
      report.cache_hit = true;
      report.wall_build_s = seconds_since(t0);
      return report;
    }
  }
  BuildReport report = build_graph(kind, ds, cfg);
  if (!path.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (!ec) report.graph.save(path);
  }
  return report;
}

std::vector<std::pair<float, NodeId>> build_beam_search(
    const Dataset& ds, const Graph& g, std::span<const float> query,
    std::size_t ef, NodeId entry, std::size_t limit,
    std::size_t* scored_out) {
  using Entry = std::pair<float, NodeId>;
  // Degenerate frozen prefixes (nothing published yet, or an entry outside
  // the searchable range) have no reachable candidates.
  if (limit == 0 || entry == kInvalidNode ||
      static_cast<std::size_t>(entry) >= limit) {
    if (scored_out != nullptr) *scored_out = 0;
    return {};
  }
  // Min-heap of frontier candidates, max-heap of current best ef results.
  std::priority_queue<Entry, std::vector<Entry>, std::greater<Entry>> frontier;
  std::priority_queue<Entry> best;
  NodeBitset visited(limit);
  std::size_t scored = 1;
  std::vector<NodeId> fresh;        // this expansion's unvisited neighbors
  std::vector<float> fresh_dists;   // their batched distances
  fresh.reserve(g.degree());
  fresh_dists.reserve(g.degree());

  const float d0 = ds.score(query, entry);
  const auto query_norm = ds.query_norm(query);  // one norm for every batch
  frontier.emplace(d0, entry);
  best.emplace(d0, entry);
  visited.set(entry);

  while (!frontier.empty()) {
    const auto [dist_v, v] = frontier.top();
    frontier.pop();
    if (best.size() >= ef && dist_v > best.top().first) break;
    fresh.clear();
    for (NodeId n : g.neighbors(v)) {
      if (n == kInvalidNode || n >= limit || visited.test(n)) continue;
      visited.set(n);
      fresh.push_back(n);
    }
    fresh_dists.resize(fresh.size());
    ds.distance_batch(query, fresh, fresh_dists, query_norm);
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      const NodeId n = fresh[i];
      const float d = fresh_dists[i];
      ++scored;
      if (best.size() < ef || d < best.top().first) {
        frontier.emplace(d, n);
        best.emplace(d, n);
        if (best.size() > ef) best.pop();
      }
    }
  }
  if (scored_out != nullptr) *scored_out = scored;

  std::vector<Entry> out(best.size());
  for (std::size_t i = best.size(); i-- > 0;) {
    out[i] = best.top();
    best.pop();
  }
  return out;
}

NodeId approximate_medoid(const Dataset& ds, BuildExecutor& exec,
                          std::size_t limit) {
  const std::size_t n = std::min(limit, ds.num_base());
  const std::size_t dim = ds.dim();
  if (n == 0) return 0;
  // The centroid accumulates serially: float addition is order-sensitive,
  // and the centroid must not depend on the thread count.
  std::vector<float> centroid(dim, 0.0f);
  for (std::size_t i = 0; i < n; ++i) {
    const auto v = ds.base_vector(i);
    for (std::size_t d = 0; d < dim; ++d) centroid[d] += v[d];
  }
  for (auto& c : centroid) c /= static_cast<float>(n);

  // The scan parallelizes: per-row distances are chunk-invariant, and the
  // (distance, id) merge below ties to the lowest id, so the winner never
  // depends on how parallel_for split the range.
  NodeId best = 0;
  float best_d = kInfDist;
  std::mutex merge_mu;
  exec.parallel_for(n, [&](std::size_t begin, std::size_t end) {
    NodeId local_best = 0;
    float local_d = kInfDist;
    std::vector<float> dists(std::min(end - begin, kScanChunk));
    for (std::size_t first = begin; first < end; first += kScanChunk) {
      const std::size_t len = std::min(kScanChunk, end - first);
      ds.distance_batch_range(centroid, first, len, dists);
      for (std::size_t i = 0; i < len; ++i) {
        const auto id = static_cast<NodeId>(first + i);
        if (dists[i] < local_d || (dists[i] == local_d && id < local_best)) {
          local_d = dists[i];
          local_best = id;
        }
      }
    }
    std::lock_guard<std::mutex> lock(merge_mu);
    if (local_d < best_d || (local_d == best_d && local_best < best)) {
      best_d = local_d;
      best = local_best;
    }
  });
  return best;
}

}  // namespace algas
