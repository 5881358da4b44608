// Exact k-NN ground truth via multithreaded brute force. Offline work —
// runs on real threads, outside the simulated system.
#pragma once

#include <cstddef>
#include <vector>

#include "dataset/dataset.hpp"
#include "search/accept.hpp"

namespace algas {

/// Exact top-k base ids for one query, ascending by distance, over the
/// rows the predicate accepts (every row under the null predicate). Fewer
/// than k accepted rows yields a shorter list (never padded here).
std::vector<NodeId> brute_force_topk(const Dataset& ds,
                                     std::span<const float> query,
                                     std::size_t k,
                                     const search::AcceptPredicate& accept);

/// Exact predicate-restricted ground truth for every query: a flat
/// num_queries x k table (row q at [q*k, q*k+k)), padded with kInvalidNode
/// where fewer than k rows are accepted. NOT attached to the dataset —
/// filtered truth is a property of (dataset, predicate), and a run
/// typically sweeps several predicates over one dataset. Score with
/// metrics::recall_against. `threads` follows the build-thread convention:
/// 0 = ALGAS_BUILD_THREADS (then hardware), 1 = serial. The result is exact
/// either way.
std::vector<NodeId> compute_filtered_ground_truth(
    const Dataset& ds, std::size_t k, const search::AcceptPredicate& accept,
    std::size_t threads = 0);

/// Compute and attach exact ground truth for all queries of `ds`: the
/// filtered table under the null predicate.
void compute_ground_truth(Dataset& ds, std::size_t k,
                          std::size_t threads = 0);

}  // namespace algas
