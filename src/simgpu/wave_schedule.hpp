// Wave scheduling of one launch's CTA workloads onto the device's
// resident-block capacity, for every kernel launched per batch: the
// batch-synchronous baselines (CAGRA-style, GANNS-style, IVF) and batched
// graph construction (one CTA per insertion, graph/nsw_builder.cpp).
//
// Unlike ALGAS's persistent kernel, these kernels end at a barrier: every
// query's completion is gated on the batch's slowest CTA — the query bubble
// of §III-A. The idle/active split this produces is what bench_fig2 reports
// as the waste rate.
#pragma once

#include <cstddef>
#include <vector>

#include "common/ownership.hpp"
#include "simgpu/device_props.hpp"
#include "simgpu/shared_memory.hpp"

namespace algas::sim {

/// Tasks and timings are values: built up locally by the scheduler, then
/// read-only once returned to the engine (the batch already happened).
struct CtaTask {
  std::size_t query ALGAS_IMMUTABLE_AFTER_PUBLISH = 0;     ///< batch index
  double duration_ns ALGAS_IMMUTABLE_AFTER_PUBLISH = 0.0;  ///< modeled time
};

struct BatchTiming {
  /// Per-batch-query completion of the query's own CTAs (before merge),
  /// relative to batch start.
  std::vector<double> query_search_end ALGAS_IMMUTABLE_AFTER_PUBLISH;
  /// Per-query completion including its TopK merge.
  std::vector<double> query_final ALGAS_IMMUTABLE_AFTER_PUBLISH;
  double gpu_end_ns ALGAS_IMMUTABLE_AFTER_PUBLISH = 0.0;   ///< kernel end
  double idle_ns ALGAS_IMMUTABLE_AFTER_PUBLISH = 0.0;      ///< barrier wait
  double active_ns ALGAS_IMMUTABLE_AFTER_PUBLISH = 0.0;    ///< search/merge
};

/// Greedy list scheduling of `tasks` (in order) onto `capacity` resident
/// block slots; per-query merge costs are appended to the query's own
/// completion (the merge reuses the query's freed CTAs).
BatchTiming wave_schedule(const std::vector<CtaTask>& tasks,
                          std::size_t num_queries, std::size_t capacity,
                          const std::vector<double>& merge_ns_per_query);

/// Resident-block capacity for a per-block shared memory need: the smem-
/// and block-limit-constrained occupancy the device sustains.
std::size_t device_capacity(const DeviceProps& dev,
                            const SharedMemoryLayout& layout,
                            std::size_t reserved_per_block);

}  // namespace algas::sim
