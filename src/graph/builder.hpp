// Graph builder front-end: the two index types the paper evaluates
// (NSW-GANNS and CAGRA), their shared build-time beam search, disk caching,
// and the unified BuildReport every builder returns.
//
// Construction is deterministic and thread-count invariant: a graph built
// with threads=8 is byte-identical to threads=1 (see DESIGN.md
// "Deterministic parallel construction"), so the disk cache key carries no
// thread count and artifacts are interchangeable across machines.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "dataset/dataset.hpp"
#include "graph/graph.hpp"
#include "search/kv.hpp"
#include "simgpu/cost_model.hpp"
#include "simgpu/device_props.hpp"

namespace algas {

class BuildExecutor;  // common/thread_pool.hpp
class StampedSet;     // common/node_set.hpp

enum class GraphKind : std::uint8_t {
  kNsw = 0,    ///< GANNS-style navigable small world (batch-inserted)
  kCagra,      ///< CAGRA-style fixed out-degree optimized kNN graph
};

std::string graph_kind_name(GraphKind k);

/// One config for every builder. Absorbs the former GpuBuildConfig: the
/// batch structure (`insert_batch`) is both the GPU construction kernel's
/// dispatch unit and the host-side parallel unit (`threads`).
struct BuildConfig {
  std::size_t degree = 32;           ///< fixed out-degree of the result
  std::size_t ef_construction = 64;  ///< build-time beam width
  std::uint64_t seed = 7;
  /// Host worker threads for construction. 0 defers to ALGAS_BUILD_THREADS
  /// (which itself defaults to hardware concurrency); 1 runs serially.
  /// Never affects the resulting graph, only the wall time.
  std::size_t threads = 0;
  /// NSW insertions dispatched per construction batch: each batch's beam
  /// searches run against the frozen prefix, then its links apply, each
  /// row's in insertion-id order. Part of the graph's identity (and its
  /// cache key); 1 degenerates to classic one-at-a-time insertion.
  std::size_t insert_batch = 1024;
  /// Virtual-time model of the batched construction kernel (reporting
  /// only — never affects the graph bytes).
  sim::DeviceProps device = sim::DeviceProps::rtx_a6000();
  sim::CostModel cost;
};

/// Modeled construction cost: the cost model's batched-kernel and one-CTA
/// schedules (the GANNS construction-speedup claim, in-model). Every NSW
/// insertion batch returns one (link_batch); the offline build and the
/// streaming index sum them in batch order, so both report one ledger.
struct BuildCost {
  std::size_t batches = 0;
  std::size_t scored_points = 0;   ///< beam-search distance evals, total
  /// Pair distances the host's link phase scored: the batch rows'
  /// selections and backlink distances, and every link's row re-scoring
  /// and re-selection. Host work, not modeled time: the cost model charges
  /// linking inside each insertion's modeled cost, so link_evals feeds no
  /// virtual value and not speedup(). The same at any thread count.
  std::size_t link_evals = 0;
  double virtual_build_ns = 0.0;   ///< wave-scheduled batched construction
  double serial_build_ns = 0.0;    ///< same work on one CTA (the baseline)

  BuildCost& operator+=(const BuildCost& o) {
    batches += o.batches;
    scored_points += o.scored_points;
    link_evals += o.link_evals;
    virtual_build_ns += o.virtual_build_ns;
    serial_build_ns += o.serial_build_ns;
    return *this;
  }

  double speedup() const {
    return virtual_build_ns > 0.0 ? serial_build_ns / virtual_build_ns : 0.0;
  }
};

/// What every build returns: the graph, its modeled cost and the real host
/// time it took.
struct BuildReport : BuildCost {
  Graph graph;
  double wall_build_s = 0.0;       ///< host wall-clock, load or build
  bool cache_hit = false;          ///< load_or_build_graph found an artifact
};

/// Build the requested index over `ds`. Degree 0 throws
/// std::invalid_argument: no graph without neighbour slots is navigable.
BuildReport build_graph(GraphKind kind, const Dataset& ds,
                        const BuildConfig& cfg);

/// Build or load from ALGAS_CACHE_DIR keyed by dataset identity + config
/// (never by thread count — builds are thread-invariant). On a cache hit
/// the report carries the loaded graph, cache_hit=true, and only wall
/// time.
BuildReport load_or_build_graph(GraphKind kind, const Dataset& ds,
                                const BuildConfig& cfg);

/// Best-first search of both builders on the query path's structures: a
/// search::CandidateList of `ef` entries (KV order: ties break by id) and
/// the caller's visited set, which must cover g.num_nodes() and is cleared
/// here in O(1). Each step expands the best unchecked entry, scoring its
/// unvisited neighbours in one distance_batch. Returns the list, checked
/// flags clear. Every edge is followed: a frozen prefix holds none past
/// itself (build_nsw's later rows are padding; a MutableIndex graph holds
/// only published rows). `scored_out` gets the cost model's eval count.
std::vector<KV> build_beam_search(const Dataset& ds, const Graph& g,
                                  std::span<const float> query,
                                  std::size_t ef, NodeId entry,
                                  StampedSet& visited,
                                  std::size_t* scored_out = nullptr);

/// Node of the prefix [0, limit) whose vector is closest to that prefix's
/// centroid — the search entry point of both builders. The default limit
/// scans every row; streaming publishes entry points over the linked
/// prefix while later rows are still staged. `exec` parallelizes the scan
/// and never changes the winner (ties break to the lowest id regardless of
/// chunking).
NodeId approximate_medoid(
    const Dataset& ds, BuildExecutor& exec,
    std::size_t limit = std::numeric_limits<std::size_t>::max());

}  // namespace algas
