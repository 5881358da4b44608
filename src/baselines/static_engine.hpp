// CAGRA-style batch-synchronous engine [Ootomo et al., ICDE'24].
//
// Per batch: one kernel launch, queries transferred in bulk, every query
// searched by `n_parallel` CTAs (search::multi_cta_search, the same
// multi-CTA search over a shared visited table that AlgasEngine runs),
// TopK merged *on the GPU* by divide-and-conquer, results transferred in
// bulk, and — crucially — every query returns only when the whole batch
// finishes (static batching, Fig 4 top). With n_parallel=1 and merge
// disabled this engine is also the GANNS-style single-CTA baseline (see
// ganns_config).
#pragma once

#include <cstdint>
#include <string>

#include "core/engine.hpp"
#include "dataset/dataset.hpp"
#include "graph/graph.hpp"
#include "search/intra_cta.hpp"

namespace algas::baselines {

enum class MergeMode : std::uint8_t {
  kGpuDivideConquer = 0,  ///< CAGRA: cross-CTA merge in global memory
  kHost,                  ///< ablation: ALGAS-style host merge
  kNone,                  ///< single-CTA engines need no merge
};

struct StaticConfig {
  search::SearchConfig search;
  std::size_t batch_size = 16;
  /// CTAs per query; 0 = auto (fill capacity across the batch, max 16).
  std::size_t n_parallel = 0;
  MergeMode merge = MergeMode::kGpuDivideConquer;
  sim::DeviceProps device = sim::DeviceProps::rtx_a6000();
  sim::CostModel cost;
  std::uint64_t seed = 1;
  /// Optional SimTrace sink (not owned). Null falls back to the ALGAS_TRACE
  /// default tracer; null there too means untraced. Pure observer — tracing
  /// never changes timing or the report.
  sim::Tracer* tracer = nullptr;
  /// Trace process label (ganns_config substitutes its own).
  std::string trace_label = "static-batch";
};

/// GANNS-style baseline [Yu et al., ICDE'22], modified as in the paper's
/// §VI to dispatch small batches: `cfg` run batch-synchronously with one
/// CTA per query (GANNS has no multi-CTA mode), greedy maintenance every
/// iteration, no TopK merge, traced as "ganns".
StaticConfig ganns_config(StaticConfig cfg);

class StaticBatchEngine {
 public:
  StaticBatchEngine(const Dataset& ds, const Graph& g, StaticConfig cfg);

  std::size_t n_parallel() const { return n_parallel_; }
  std::size_t capacity() const { return capacity_; }

  core::EngineReport run_closed_loop(std::size_t num_queries);
  core::EngineReport run(const std::vector<core::PendingQuery>& arrivals);

 private:
  const Dataset& ds_;
  const Graph& g_;
  StaticConfig cfg_;
  std::size_t n_parallel_ = 1;
  std::size_t capacity_ = 1;
};

}  // namespace algas::baselines
