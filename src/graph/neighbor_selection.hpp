// Neighbor-selection heuristics shared by the graph builders.
//
// A call writes exactly one adjacency row: select_neighbors(v) rewrites
// row v and its diverse-prefix byte, and link(v, u) adds to (or re-selects)
// row v, reading and writing the same byte. Neither reads any other row of
// the graph; both score only base vectors. So concurrent calls are safe as
// long as no two of them share a row, which is how the NSW link phase runs
// them in parallel (graph/nsw_builder.hpp). Each row's calls must still
// come in insertion-id order to keep the graph independent of the
// construction thread count.
//
// Incremental re-selection. A row that select_neighbors wrote is
// [D | P]: the members the diversity test kept (D, the row's diverse
// prefix, in (distance, id) order), then the pruned members that backfill
// the row (P). Re-running the heuristic over the row's own members
// reproduces that split, so when link re-selects a full row over its
// members plus one new node it passes each member's old decision as a
// hint, and select_neighbors re-scores only what the new node can change
// (DESIGN.md, "Deterministic parallel construction"). The graph is the
// same bytes as with no hints. The hints hold only when a member's
// distance recomputes to the float it was selected with, which f32 rows
// guarantee (distances are symmetric bit for bit); quantized rows score an
// f32 row against a decoded one, so they never record a prefix.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "dataset/dataset.hpp"
#include "graph/graph.hpp"

namespace algas {

/// What a row's last selection decided for one of its members.
enum class Hint : std::uint8_t {
  kUnknown,  ///< a new candidate, or a row with no recorded prefix
  kKept,     ///< in the row's diverse prefix
  kPruned,   ///< in the row's backfilled tail
};

/// A candidate neighbor of the row being selected: its distance to the
/// row's node, its id and, for a current member, its old decision.
struct Candidate {
  float dist = 0.0f;
  NodeId id = kInvalidNode;
  Hint hint = Hint::kUnknown;
};

/// Per-thread buffers for select_neighbors and link, reused across calls
/// so neither allocates per row, and the count of pair distances they
/// scored.
struct LinkScratch {
  std::vector<std::size_t> pruned;
  std::vector<float> kept_dists;
  /// Kept candidates that were not in the row's old diverse prefix.
  std::vector<NodeId> fresh;
  std::vector<Candidate> candidates;
  std::vector<float> row_dists;
  /// Pair distances scored through this scratch (host work only; the link
  /// phase sums it into BuildCost::link_evals).
  std::size_t evals = 0;
};

/// Rebuild v's neighbor row from `candidates` (will be sorted ascending by
/// (distance, id), deduped) with the HNSW select-neighbors heuristic: keep
/// a candidate only when it is closer to v than to every already-kept
/// neighbor — preserving a mix of short and long (navigable) edges. Pruned
/// candidates backfill remaining slots. Candidates whose hint is known
/// skip the checks their old decision already settles. Records the row's
/// diverse prefix on f32 datasets. `candidates` may be
/// `scratch.candidates`.
void select_neighbors(const Dataset& ds, Graph& g, NodeId v,
                      std::vector<Candidate>& candidates,
                      LinkScratch& scratch);

/// Add edge v->u (distance d_vu); on a full row, re-select v's neighbors
/// with the heuristic over {current row + u}, hinted by the row's diverse
/// prefix when it has one.
void link(const Dataset& ds, Graph& g, NodeId v, NodeId u, float d_vu,
          LinkScratch& scratch);

}  // namespace algas
