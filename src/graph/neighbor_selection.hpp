// Neighbor-selection heuristics shared by the graph builders.
//
// A call writes exactly one adjacency row: select_neighbors(v) rewrites
// row v, and link(v, u) adds to (or re-selects) row v. Neither reads any
// other row of the graph; both score only base vectors. So concurrent
// calls are safe as long as no two of them share a row, which is how the
// NSW link phase runs them in parallel (graph/nsw_builder.hpp). Each row's
// calls must still come in insertion-id order to keep the graph
// independent of the construction thread count.
#pragma once

#include <cstddef>
#include <utility>
#include <vector>

#include "dataset/dataset.hpp"
#include "graph/graph.hpp"

namespace algas {

/// Per-thread buffers for select_neighbors and link, reused across calls
/// so neither allocates per row.
struct LinkScratch {
  std::vector<std::size_t> pruned;
  std::vector<float> kept_dists;
  std::vector<std::pair<float, NodeId>> candidates;
  std::vector<float> row_dists;
};

/// Rebuild v's neighbor row from `candidates` (will be sorted ascending by
/// distance to v, deduped) with the HNSW select-neighbors heuristic: keep a
/// candidate only when it is closer to v than to every already-kept
/// neighbor — preserving a mix of short and long (navigable) edges. Pruned
/// candidates backfill remaining slots. `candidates` may be
/// `scratch.candidates`.
void select_neighbors(const Dataset& ds, Graph& g, NodeId v,
                      std::vector<std::pair<float, NodeId>>& candidates,
                      LinkScratch& scratch);

/// Add edge v->u (distance d_vu); on a full row, re-select v's neighbors
/// with the heuristic over {current row + u}.
void link(const Dataset& ds, Graph& g, NodeId v, NodeId u, float d_vu,
          LinkScratch& scratch);

}  // namespace algas
