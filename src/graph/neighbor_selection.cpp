#include "graph/neighbor_selection.hpp"

#include <algorithm>
#include <span>
#include <tuple>

namespace algas {

/// Rebuild v's neighbor row from `candidates` with the HNSW select-
/// neighbors heuristic: walk them in (distance, id) order and keep one only
/// when it is closer to v than to every already-kept neighbor. This
/// preserves a mix of short and long (navigable) edges, which plain
/// closest-first eviction destroys. Pruned candidates backfill remaining
/// slots.
///
/// Hints skip what the row's last selection settled. A kept member passed
/// against every kept member before it, so it is scored only against kept
/// candidates that were not kept before (`fresh`: the new node and any
/// promoted member) and may be demoted. A pruned member was pruned by a
/// kept member before it, so it stays pruned unscored until some kept
/// member has been demoted; after that it is scored against the whole kept
/// set and may be promoted. With no hints every candidate is scored against
/// the whole kept set: the plain heuristic.
void select_neighbors(const Dataset& ds, Graph& g, NodeId v,
                      std::vector<Candidate>& candidates,
                      LinkScratch& scratch) {
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) {
              return std::tie(a.dist, a.id) < std::tie(b.dist, b.id);
            });
  candidates.erase(std::unique(candidates.begin(), candidates.end(),
                               [](const Candidate& a, const Candidate& b) {
                                 return a.id == b.id;
                               }),
                   candidates.end());

  auto row = g.mutable_neighbors(v);
  std::fill(row.begin(), row.end(), kInvalidNode);
  std::size_t kept = 0;
  bool demoted = false;
  std::vector<std::size_t>& pruned = scratch.pruned;
  std::vector<float>& kept_dists = scratch.kept_dists;
  std::vector<NodeId>& fresh = scratch.fresh;
  pruned.clear();
  fresh.clear();
  kept_dists.resize(row.size());
  for (std::size_t i = 0; i < candidates.size() && kept < row.size(); ++i) {
    const Candidate& c = candidates[i];
    if (c.hint == Hint::kPruned && !demoted) {
      pruned.push_back(i);
      continue;
    }
    const std::span<const NodeId> against =
        c.hint == Hint::kKept ? std::span<const NodeId>(fresh)
                              : std::span<const NodeId>(row.data(), kept);
    // One batched round scores c against every neighbor that can reject
    // it. This drops the scalar loop's early exit, but the kept prefix is
    // <= degree and the ILP/prefetch win dominates the extra tail
    // evaluations.
    if (!against.empty()) {
      ds.distance_batch(ds.base_vector(c.id), against,
                        std::span<float>(kept_dists).first(against.size()),
                        ds.base_query_norm(c.id));
      scratch.evals += against.size();
    }
    const bool diverse =
        std::none_of(kept_dists.begin(),
                     kept_dists.begin() +
                         static_cast<std::ptrdiff_t>(against.size()),
                     [&](float d) { return d < c.dist; });
    if (diverse) {
      row[kept++] = c.id;
      if (c.hint != Hint::kKept) fresh.push_back(c.id);
    } else {
      pruned.push_back(i);
      demoted = demoted || c.hint == Hint::kKept;
    }
  }
  const std::size_t diverse_prefix = kept;
  for (std::size_t i : pruned) {
    if (kept >= row.size()) break;
    row[kept++] = candidates[i].id;
  }
  g.set_diverse_prefix(v, diverse_prefix);
}

/// Add edge w->v; on overflow re-select w's row with the heuristic.
void link(const Dataset& ds, Graph& g, NodeId w, NodeId v,
          LinkScratch& scratch) {
  // Read the row through neighbors(): mutable_neighbors() would reset the
  // diverse prefix the re-selection needs.
  const std::span<const NodeId> row = g.neighbors(w);
  for (std::size_t i = 0; i < row.size(); ++i) {
    if (row[i] == v) return;
    if (row[i] == kInvalidNode) {
      g.mutable_neighbors(w)[i] = v;  // appended, not selected: no prefix
      return;
    }
  }
  // The members and v in one batch from w's side: every distance the
  // re-selection compares is the one w's own selections scored, under
  // every codec, so the prefix holds.
  const std::size_t prefix = g.diverse_prefix(w);
  std::vector<NodeId>& ids = scratch.row_ids;
  ids.assign(row.begin(), row.end());
  ids.push_back(v);
  std::vector<float>& dists = scratch.row_dists;
  dists.resize(ids.size());
  ds.distance_batch(ds.base_vector(w), ids, dists, ds.base_query_norm(w));
  scratch.evals += ids.size();
  std::vector<Candidate>& candidates = scratch.candidates;
  candidates.clear();
  for (std::size_t i = 0; i < ids.size(); ++i) {
    Hint hint = Hint::kUnknown;  // v, or a row with no recorded prefix
    if (i < row.size() && prefix != Graph::kUnknownPrefix) {
      hint = i < prefix ? Hint::kKept : Hint::kPruned;
    }
    candidates.push_back({dists[i], ids[i], hint});
  }
  select_neighbors(ds, g, w, candidates, scratch);
}

}  // namespace algas
