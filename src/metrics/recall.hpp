// Recall@k: |K_approximate ∩ K_truth| / |K_truth| (§II-A).
#pragma once

#include <cstddef>
#include <span>

#include "dataset/dataset.hpp"
#include "metrics/collector.hpp"
#include "search/kv.hpp"

namespace algas::metrics {

/// Recall of one result list against the dataset's ground truth for query q.
double recall_at_k(const Dataset& ds, std::size_t query_index,
                   std::span<const KV> results, std::size_t k);

/// Recall against an explicit truth row (e.g. one row of
/// compute_filtered_ground_truth) instead of the dataset's attached ground
/// truth. kInvalidNode padding in `truth` is ignored: when the predicate
/// accepts fewer than k rows, the denominator is the accepted count, so a
/// search that returns every acceptable row scores 1.0. An all-padding
/// truth row scores 1.0 (nothing to find).
double recall_against(std::span<const NodeId> truth,
                      std::span<const KV> results, std::size_t k);

/// Mean recall@k over the SERVED records of `col` (0 when none served):
/// recall is a statement about delivered answers, so a shed or evicted
/// query, which returned nothing, shows up in shed_rate/goodput instead of
/// dragging recall to zero. Scored against the dataset's ground truth.
double served_recall(const Dataset& ds, const Collector& col, std::size_t k);

/// Same, scored with recall_against against an explicit truth matrix: row
/// q (stride k) is query q's truth, e.g. compute_filtered_ground_truth.
double served_recall(std::span<const NodeId> truth, const Collector& col,
                     std::size_t k);

}  // namespace algas::metrics
