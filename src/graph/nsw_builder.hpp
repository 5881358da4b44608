// NSW graph construction in the GANNS style [Yu et al., ICDE'22]: points
// are inserted in batches of cfg.insert_batch. Every point of a batch beam-
// searches the frozen prefix (all previous batches) concurrently — the
// host-side analogue of one CTA per insertion — then the batch's links are
// applied, capped at `degree` per row with the select-neighbors heuristic
// on overflow: every row selects its neighbors at once, then the backlinks
// apply with the target rows in parallel, each row's links in insertion-id
// order. The two-phase structure makes the graph a pure function of
// (dataset, config): byte-identical for any thread count, and to linking
// the whole batch serially in insertion-id order. insert_batch=1
// degenerates to classic one-at-a-time insertion.
//
// The two phases are the only construction path: build_nsw loops over
// them, and core::MutableIndex::prepare_next/apply run them beside live
// queries, so a live insert batch is exactly an offline build batch.
#pragma once

#include <cstddef>
#include <vector>

#include "graph/builder.hpp"

namespace algas {

/// One insertion batch between its two phases: rows [first, first + count)
/// of the dataset, each with its phase-1 beam and search cost.
struct InsertBatch {
  std::size_t first = 0;
  std::size_t count = 0;
  /// Per row: (distance, id) candidates in the frozen prefix, KV-ascending.
  std::vector<std::vector<KV>> found;
  /// Per row: distance evaluations its search scored.
  std::vector<std::size_t> scored;
};

/// Phase 1: search rows [first, first + count) against the frozen prefix
/// [0, first) of `g`, fanned out on `exec`. The first batch has no prefix
/// graph, so its points score each other exhaustively (the GPU's brute-
/// force tile kernel). Only reads `g`: safe beside concurrent readers.
InsertBatch search_batch(const Dataset& ds, const Graph& g,
                         const BuildConfig& cfg, BuildExecutor& exec,
                         std::size_t first, std::size_t count);

/// Phase 2: link the batch into `g` on `exec` and return its modeled cost:
/// one wave-scheduled kernel launch with one CTA per insertion. Step 2a
/// selects every row's neighbors in parallel; step 2b applies the
/// backlinks with the target rows in parallel, each row's links in
/// insertion-id order, so the graph equals the serial fold's at any thread
/// count (DESIGN.md, "Deterministic parallel construction"). `g` must
/// already hold the batch's rows. Leaves the entry point to the caller.
BuildCost link_batch(const Dataset& ds, Graph& g, const BuildConfig& cfg,
                     BuildExecutor& exec, const InsertBatch& batch);

/// Offline build: every row, batch by batch, then the medoid entry point.
BuildReport build_nsw(const Dataset& ds, const BuildConfig& cfg);

}  // namespace algas
