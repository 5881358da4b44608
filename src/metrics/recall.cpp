#include "metrics/recall.hpp"

#include <algorithm>
#include <stdexcept>

namespace algas::metrics {

namespace {

/// The one loop averaging a per-record recall over served records.
template <class Score>
double mean_over_served(const Collector& col, Score score) {
  double total = 0.0;
  std::size_t served = 0;
  for (const QueryRecord& r : col.records()) {
    if (!r.served()) continue;
    ++served;
    total += score(r);
  }
  return served == 0 ? 0.0 : total / static_cast<double>(served);
}

}  // namespace

double recall_at_k(const Dataset& ds, std::size_t query_index,
                   std::span<const KV> results, std::size_t k) {
  if (!ds.has_ground_truth()) {
    throw std::logic_error("dataset has no ground truth attached");
  }
  if (k > ds.gt_k()) {
    throw std::invalid_argument("recall depth exceeds cached ground truth");
  }
  const auto truth = ds.ground_truth(query_index).subspan(0, k);
  std::size_t hits = 0;
  std::size_t taken = 0;
  for (const KV& kv : results) {
    if (kv.is_empty() || taken == k) break;
    ++taken;
    if (std::find(truth.begin(), truth.end(), kv.id()) != truth.end()) ++hits;
  }
  return static_cast<double>(hits) / static_cast<double>(k);
}

double recall_against(std::span<const NodeId> truth,
                      std::span<const KV> results, std::size_t k) {
  if (truth.size() > k) truth = truth.subspan(0, k);
  std::size_t denom = 0;
  for (const NodeId t : truth) {
    if (t != kInvalidNode) ++denom;
  }
  if (denom == 0) return 1.0;
  std::size_t hits = 0;
  std::size_t taken = 0;
  for (const KV& kv : results) {
    if (kv.is_empty() || taken == k) break;
    ++taken;
    if (std::find(truth.begin(), truth.end(), kv.id()) != truth.end()) {
      ++hits;
    }
  }
  return static_cast<double>(hits) / static_cast<double>(denom);
}

double served_recall(const Dataset& ds, const Collector& col,
                     std::size_t k) {
  return mean_over_served(col, [&](const QueryRecord& r) {
    return recall_at_k(ds, r.query_index, r.results, k);
  });
}

double served_recall(std::span<const NodeId> truth, const Collector& col,
                     std::size_t k) {
  return mean_over_served(col, [&](const QueryRecord& r) {
    return recall_against(truth.subspan(r.query_index * k, k), r.results, k);
  });
}

}  // namespace algas::metrics
