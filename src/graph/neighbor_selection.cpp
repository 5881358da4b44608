#include "graph/neighbor_selection.hpp"

#include <algorithm>

namespace algas {

/// Rebuild v's neighbor row from `candidates` (ascending by distance to v)
/// with the HNSW select-neighbors heuristic: keep a candidate only when it
/// is closer to v than to every already-kept neighbor. This preserves a mix
/// of short and long (navigable) edges, which plain closest-first eviction
/// destroys. Pruned candidates backfill remaining slots.
void select_neighbors(const Dataset& ds, Graph& g, NodeId v,
                      std::vector<std::pair<float, NodeId>>& candidates,
                      LinkScratch& scratch) {
  std::sort(candidates.begin(), candidates.end());
  candidates.erase(std::unique(candidates.begin(), candidates.end(),
                               [](const auto& a, const auto& b) {
                                 return a.second == b.second;
                               }),
                   candidates.end());

  auto row = g.mutable_neighbors(v);
  std::fill(row.begin(), row.end(), kInvalidNode);
  std::size_t kept = 0;
  std::vector<std::size_t>& pruned = scratch.pruned;
  std::vector<float>& kept_dists = scratch.kept_dists;
  pruned.clear();
  kept_dists.resize(row.size());
  for (std::size_t i = 0; i < candidates.size() && kept < row.size(); ++i) {
    const auto [d_vu, u] = candidates[i];
    // One batched round scores u against every kept neighbor. This drops
    // the scalar loop's early exit, but the kept prefix is <= degree and
    // the ILP/prefetch win dominates the extra tail evaluations.
    ds.distance_batch(ds.base_vector(u),
                      std::span<const NodeId>{row.data(), kept}, kept_dists,
                      ds.base_query_norm(u));
    bool diverse = true;
    for (std::size_t j = 0; j < kept; ++j) {
      if (kept_dists[j] < d_vu) {
        diverse = false;
        break;
      }
    }
    if (diverse) {
      row[kept++] = u;
    } else {
      pruned.push_back(i);
    }
  }
  for (std::size_t i : pruned) {
    if (kept >= row.size()) break;
    row[kept++] = candidates[i].second;
  }
}

/// Add edge v->u; on overflow re-select v's row with the heuristic.
void link(const Dataset& ds, Graph& g, NodeId v, NodeId u, float d_vu,
          LinkScratch& scratch) {
  auto row = g.mutable_neighbors(v);
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i] == u) return;
    if (row[i] == kInvalidNode) {
      row[i] = u;
      return;
    }
  }
  std::vector<std::pair<float, NodeId>>& candidates = scratch.candidates;
  std::vector<float>& row_dists = scratch.row_dists;
  candidates.clear();
  candidates.emplace_back(d_vu, u);
  row_dists.resize(row.size());
  ds.distance_batch(ds.base_vector(v),
                    std::span<const NodeId>{row.data(), row.size()},
                    row_dists, ds.base_query_norm(v));
  for (std::size_t i = 0; i < row.size(); ++i) {
    candidates.emplace_back(row_dists[i], row[i]);
  }
  select_neighbors(ds, g, v, candidates, scratch);
}

}  // namespace algas
