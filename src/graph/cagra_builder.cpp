#include "graph/cagra_builder.hpp"

#include <algorithm>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "common/node_set.hpp"
#include "common/thread_pool.hpp"
#include "graph/nsw_builder.hpp"

namespace algas {

BuildReport build_cagra(const Dataset& ds, const BuildConfig& cfg) {
  const std::size_t n = ds.num_base();
  BuildReport out;
  out.graph = Graph(n, cfg.degree);
  Graph& g = out.graph;
  if (n == 0) return out;
  if (n == 1) {
    g.set_entry_point(0);
    return out;
  }

  BuildExecutor exec(cfg.threads);

  // --- 1. scaffold NSW + kNN lists -------------------------------------
  BuildConfig scaffold_cfg = cfg;
  scaffold_cfg.degree = std::min<std::size_t>(cfg.degree, n - 1);
  BuildReport scaffold_report = build_nsw(ds, scaffold_cfg);
  const Graph& scaffold = scaffold_report.graph;
  // The scaffold dominates the modeled construction time; the refinement
  // passes below add their beam-search distance evals on top.
  out += scaffold_report;

  const std::size_t k = std::min(2 * cfg.degree, n - 1);
  std::vector<std::vector<std::pair<float, NodeId>>> knn(n);
  std::vector<std::size_t> scored(n, 0);
  exec.parallel_for(n, [&](std::size_t begin, std::size_t end) {
    for (std::size_t v = begin; v < end; ++v) {
      auto found = build_beam_search(ds, scaffold, ds.base_vector(v),
                                     std::max(cfg.ef_construction, k + 1),
                                     scaffold.entry_point(), n, &scored[v]);
      auto& list = knn[v];
      list.reserve(k);
      for (const auto& [d, u] : found) {
        if (u == static_cast<NodeId>(v)) continue;
        list.emplace_back(d, u);
        if (list.size() == k) break;
      }
    }
  });
  for (std::size_t v = 0; v < n; ++v) out.scored_points += scored[v];

  // --- 2. rank-based reordering (CAGRA's edge importance) ----------------
  // Edge (v,u) is weighted by its detourable count: how many closer
  // neighbors w of v satisfy d(w,u) < d(v,u) — i.e., how many 2-hop routes
  // dominate the direct edge. Edges are reordered by (count, rank) and the
  // strongest `degree` survive as forward edges, with ties favouring
  // nearness. This keeps the true near neighbors (count 0) while demoting
  // redundant intra-cluster edges, unlike a binary prune.
  std::vector<std::vector<NodeId>> kept(n), dropped(n);
  exec.parallel_for(n, [&](std::size_t begin, std::size_t end) {
    std::vector<std::pair<std::uint32_t, std::size_t>> order;  // (count, rank)
    std::vector<NodeId> closer_ids;  // ids of list[0..i) — the closer prefix
    std::vector<float> closer_dists;
    for (std::size_t v = begin; v < end; ++v) {
      const auto& list = knn[v];
      order.clear();
      closer_ids.clear();
      closer_dists.resize(list.size());
      for (std::size_t i = 0; i < list.size(); ++i) {
        const auto [d_vu, u] = list[i];
        // Batch-score u against every closer neighbor of v in one round.
        ds.distance_batch(ds.base_vector(u), closer_ids, closer_dists);
        std::uint32_t detours = 0;
        for (std::size_t j = 0; j < i; ++j) {
          if (closer_dists[j] < d_vu) ++detours;
        }
        order.emplace_back(detours, i);
        closer_ids.push_back(u);
      }
      std::sort(order.begin(), order.end());
      auto& keep = kept[v];
      auto& drop = dropped[v];
      for (const auto& [count, rank] : order) {
        if (keep.size() < cfg.degree) {
          keep.push_back(list[rank].second);
        } else {
          drop.push_back(list[rank].second);
        }
      }
    }
  });

  // --- 3. forward + reverse edges, CAGRA-style half/half ----------------
  // CAGRA reserves roughly half the row for reverse edges; without them a
  // pruned kNN graph has poor *directed* reachability from a single entry.
  std::vector<std::vector<NodeId>> reverse(n);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId u : kept[v]) reverse[u].push_back(v);
  }

  const std::size_t forward_cap = std::max<std::size_t>(1, cfg.degree / 2);
  for (NodeId v = 0; v < n; ++v) {
    auto row = g.mutable_neighbors(v);
    std::size_t slot = 0;
    auto add = [&](NodeId u, std::size_t cap) {
      if (slot >= cap || u == v) return;
      for (std::size_t i = 0; i < slot; ++i) {
        if (row[i] == u) return;
      }
      row[slot++] = u;
    };
    for (NodeId u : kept[v]) add(u, forward_cap);
    for (NodeId u : reverse[v]) add(u, row.size());
    // Backfill leftover slots with remaining forward candidates.
    for (NodeId u : kept[v]) add(u, row.size());
    for (NodeId u : dropped[v]) add(u, row.size());
  }

  g.set_entry_point(approximate_medoid(ds, exec));

  // --- 4. connectivity augmentation -------------------------------------
  // A pruned kNN graph of clustered data splits into per-cluster islands;
  // reverse edges cannot bridge them. Like production CAGRA-style builders,
  // stitch every unreachable component to its (approximately) nearest
  // reachable node by replacing that node's tail edge.
  std::vector<std::uint32_t> in_degree(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId u : g.neighbors(v)) {
      if (u != kInvalidNode) ++in_degree[u];
    }
  }

  NodeBitset reachable(n);
  std::deque<NodeId> frontier;
  auto flood = [&](NodeId start) {
    frontier.push_back(start);
    reachable.set(start);
    while (!frontier.empty()) {
      const NodeId w = frontier.front();
      frontier.pop_front();
      for (NodeId u : g.neighbors(w)) {
        if (u == kInvalidNode || reachable.test_and_set(u)) continue;
        frontier.push_back(u);
      }
    }
  };

  // Rerouting an edge can in principle disconnect something else, so run
  // stitch passes to a fixpoint (converges in a couple of passes because
  // the sacrificed edge always points at a well-covered target).
  for (int pass = 0; pass < 16; ++pass) {
    reachable.clear();
    frontier.clear();
    flood(g.entry_point());
    if (reachable.count() == n) break;

    for (NodeId v = 0; v < n; ++v) {
      if (reachable.test(v)) continue;
      // Nearest reachable node to v: a beam search from the entry can only
      // surface reachable nodes.
      std::size_t stitch_scored = 0;
      auto found = build_beam_search(
          ds, g, ds.base_vector(v),
          std::max<std::size_t>(cfg.ef_construction, 8), g.entry_point(), n,
          &stitch_scored);
      out.scored_points += stitch_scored;
      NodeId bridge = g.entry_point();
      for (const auto& [d, u] : found) {
        if (reachable.test(u)) {
          bridge = u;
          break;
        }
      }
      // Sacrifice the bridge edge whose target is best covered elsewhere so
      // rerouting is unlikely to disconnect previously reachable nodes.
      auto row = g.mutable_neighbors(bridge);
      std::size_t victim = row.size() - 1;
      std::uint32_t best_cover = 0;
      for (std::size_t i = 0; i < row.size(); ++i) {
        if (row[i] == kInvalidNode) {
          victim = i;
          best_cover = std::numeric_limits<std::uint32_t>::max();
          break;
        }
        if (in_degree[row[i]] > best_cover) {
          best_cover = in_degree[row[i]];
          victim = i;
        }
      }
      if (row[victim] != kInvalidNode) --in_degree[row[victim]];
      row[victim] = v;
      ++in_degree[v];
      // Mark v's island reachable now so later islands bridge to their own
      // nearest neighbors instead of piling onto one node.
      flood(v);
    }
  }
  return out;
}

}  // namespace algas
