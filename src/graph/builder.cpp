#include "graph/builder.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <mutex>
#include <sstream>
#include <stdexcept>

#include "common/env.hpp"
#include "common/node_set.hpp"
#include "common/thread_pool.hpp"
#include "dataset/io.hpp"
#include "graph/cagra_builder.hpp"
#include "graph/nsw_builder.hpp"
#include "search/candidate_list.hpp"

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
  if (cfg.degree == 0) {
    throw std::invalid_argument("build_graph: degree must be at least 1");
  }
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
    // The version moves whenever scoring moves a build's bits. Quantized
    // builds score different floats and link different edges, so they
    // carry a codec suffix and their own version: v5 since link scores a
    // backlink from the row it joins, which moved only their bytes (f32
    // distances are symmetric, so f32 keys and caches stay valid).
    const bool quantized = ds.storage() != StorageCodec::kF32;
    std::ostringstream out;
    out << dir << (quantized ? "/graph_v5_" : "/graph_v4_")
        << graph_kind_name(kind) << "_" << ds.name() << "_n" << ds.num_base()
        << "_d" << cfg.degree << "_ef" << cfg.ef_construction;
    if (quantized) out << "_s" << storage_codec_name(ds.storage());
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

std::vector<KV> build_beam_search(const Dataset& ds, const Graph& g,
                                  std::span<const float> query,
                                  std::size_t ef, NodeId entry,
                                  StampedSet& visited,
                                  std::size_t* scored_out) {
  if (scored_out != nullptr) *scored_out = 0;
  // An empty graph, or an invalid entry, has no reachable candidates.
  if (entry >= g.num_nodes()) return {};
  visited.clear();
  visited.insert(entry);
  search::CandidateList list(ef);
  list.seed(KV::make(ds.score(query, entry), entry));
  std::size_t scored = 1;
  const auto query_norm = ds.query_norm(query);  // one norm for every batch
  std::vector<NodeId> fresh;  // this expansion's unvisited neighbours
  std::vector<float> dists;   // their batched distances
  std::vector<KV> expand;     // those that can enter, sorted, cut to ef
  for (std::size_t at = 0; list.take_unchecked(1, {&at, 1}) == 1;) {
    fresh.clear();
    for (NodeId n : g.neighbors(list.at(at).id())) {
      if (n != kInvalidNode && visited.insert(n)) fresh.push_back(n);
    }
    if (fresh.empty()) continue;
    dists.resize(fresh.size());
    ds.distance_batch(query, fresh, dists, query_norm);
    scored += fresh.size();
    expand.clear();
    for (std::size_t i = 0; i < fresh.size(); ++i) {
      const KV kv = KV::make(dists[i], fresh[i]);
      if (list.can_enter(kv)) expand.push_back(kv);
    }
    if (expand.empty()) continue;
    std::sort(expand.begin(), expand.end());
    expand.resize(std::min(expand.size(), ef));
    list.merge_sorted(expand);
  }
  if (scored_out != nullptr) *scored_out = scored;
  // Plain (distance, id) results, as search::merge_sorted_runs returns.
  std::vector<KV> out = list.topk(ef);
  for (KV& e : out) e = KV::make(e.dist, e.id());
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
