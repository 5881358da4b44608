// Resumable intra-CTA graph search (§IV-B "Search in CTA") with optional
// beam extend.
//
// One instance models the work of one CTA (one warp). step() executes one
// *maintenance round* — the unit between candidate-list sorts:
//   localization phase: select 1 best unchecked candidate, expand it,
//     distance-score the unvisited neighbors, sort + merge.   (greedy)
//   diffusing phase (beam extend): select up to `beam_width` candidates at
//     once, expand them all, and amortize ONE sort + merge over the round.
// The phase switches permanently once the selected candidate's offset in
// the list reaches `offset_beam` (§IV-C "timing for activating beam
// search").
//
// Functional output is real (true float distances, true neighbors); each
// round also reports its modeled virtual-time cost so DES actors can charge
// the clock.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <vector>

#include "common/node_set.hpp"
#include "dataset/dataset.hpp"
#include "graph/graph.hpp"
#include "search/accept.hpp"
#include "search/candidate_list.hpp"
#include "search/search_params.hpp"
#include "simgpu/cost_model.hpp"
#include "simgpu/shared_memory.hpp"

namespace algas::search {

struct SearchConfig {
  std::size_t topk = 16;
  /// Candidate list length L (rounded up to a power of two internally).
  std::size_t candidate_len = 128;
  /// Beam width B for the diffusing phase; 1 = pure greedy ("Greedy
  /// Extend" in Fig 16).
  std::size_t beam_width = 1;
  /// Candidate-list offset that triggers the diffusing phase. Offsets grow
  /// as the search transitions from locating the TopK region to diffusing
  /// within it. >= candidate_len disables beam extend.
  std::size_t offset_beam = 24;
  /// GANNS-style maintenance: re-sort the whole merged buffer each round
  /// instead of the fused sort-expand + bitonic-merge. Functionally
  /// identical, costlier — models GANNS's heavier data-structure upkeep.
  bool full_sort_maintenance = false;
  /// Accept-step predicate: attribute filters, streaming-delete
  /// tombstones, and their conjunction behind one O(1) view
  /// (search/accept.hpp). Rejected nodes still ROUTE — they stay in the
  /// candidate list and are expanded like any other node, keeping the
  /// graph navigable — but the accept step (results() /
  /// merge_sorted_runs) excludes them from the TopK. The null predicate
  /// leaves every accept path byte-identical to the unfiltered build.
  AcceptPredicate accept;
};

/// Virtual-time cost of one maintenance round, split by activity so benches
/// can reproduce the Fig 3 / Fig 17 compute-vs-sort breakdown.
struct StepCost {
  double select_ns = 0.0;
  double gather_ns = 0.0;
  double compute_ns = 0.0;
  double sort_ns = 0.0;
  double total_ns() const {
    return select_ns + gather_ns + compute_ns + sort_ns;
  }
  StepCost& operator+=(const StepCost& o) {
    select_ns += o.select_ns;
    gather_ns += o.gather_ns;
    compute_ns += o.compute_ns;
    sort_ns += o.sort_ns;
    return *this;
  }
};

struct SearchStats {
  std::size_t rounds = 0;           ///< maintenance rounds (sorts)
  std::size_t expanded_points = 0;  ///< candidates expanded ("steps", Fig 1)
  std::size_t scored_points = 0;    ///< distance computations
  StepCost cost;                    ///< accumulated modeled time
  /// Distance of the selected candidate at each expansion (Fig 7 trace);
  /// filled only when tracing is enabled.
  std::vector<float> step_distances;
};

class IntraCtaSearch {
 public:
  IntraCtaSearch(const Dataset& ds, const Graph& g,
                 const sim::CostModel& cm, const SearchConfig& cfg);

  /// Start a new query. `visited` is the (possibly CTA-shared) table; it
  /// must already be clear or shared-cleared by the caller. The entry point
  /// is scored and seeded here (cost charged to the first round).
  void reset(std::span<const float> query, NodeId entry,
             StampedSet* visited);

  /// Execute one maintenance round. Returns false (and leaves `cost`
  /// untouched) when the search has already terminated.
  bool step(StepCost& cost);

  bool done() const { return done_; }

  /// Sorted candidate list (valid after any number of steps).
  std::span<const KV> candidates() const { return list_.entries(); }

  /// Best `topk` ids found (ascending by distance). Predicate-rejected
  /// nodes (filtered or tombstoned) are excluded here — the accept step —
  /// while remaining visible to the traversal itself.
  std::vector<KV> results() const;

  const SearchStats& stats() const { return stats_; }
  const SearchConfig& config() const { return cfg_; }
  bool in_diffusing_phase() const { return diffusing_; }

  void enable_trace(bool on) { trace_ = on; }

 private:
  const Dataset& ds_;
  const Graph& g_;
  sim::CostModel cm_;
  SearchConfig cfg_;

  CandidateList list_;
  std::vector<KV> expand_;            // sorted scratch, <= L entries
  std::vector<std::size_t> selected_; // indices scratch
  std::vector<NodeId> gathered_;      // round's unvisited neighbor ids
  std::vector<float> round_dists_;    // their batched distances
  std::span<const float> query_;
  std::optional<float> query_norm_;  // cosine: norm(query_), once per query
  StampedSet* visited_ = nullptr;
  bool done_ = true;
  bool diffusing_ = false;
  bool trace_ = false;
  double pending_ns_ = 0.0;  // entry-scoring cost carried into round 1
  SearchStats stats_;
};

/// Per-CTA shared-memory footprint of a search configuration (§IV-C): the
/// candidate list, the expand list of one full beam round, and the query at
/// the base rows' stored width. The engines budget occupancy with it.
sim::SharedMemoryLayout shared_memory_layout(const SearchConfig& cfg,
                                             const Dataset& ds,
                                             std::size_t degree);

}  // namespace algas::search

