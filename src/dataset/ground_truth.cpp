#include "dataset/ground_truth.hpp"

#include <algorithm>
#include <queue>
#include <utility>

#include "common/thread_pool.hpp"

namespace algas {

std::vector<NodeId> brute_force_topk(const Dataset& ds,
                                     std::span<const float> query,
                                     std::size_t k,
                                     const search::AcceptPredicate& accept) {
  using Entry = std::pair<float, NodeId>;  // max-heap on distance
  std::priority_queue<Entry> heap;
  const std::size_t n = ds.num_base();
  // Batched range scans; the heap consumes scores in id order, exactly as
  // the scalar loop did.
  constexpr std::size_t kChunk = 256;
  std::vector<float> dists(std::min(n, kChunk));
  for (std::size_t begin = 0; begin < n; begin += kChunk) {
    const std::size_t len = std::min(kChunk, n - begin);
    ds.distance_batch_range(query, begin, len, dists);
    for (std::size_t j = 0; j < len; ++j) {
      const auto i = static_cast<NodeId>(begin + j);
      if (!accept.accepts(i)) continue;
      const float d = dists[j];
      if (heap.size() < k) {
        heap.emplace(d, i);
      } else if (d < heap.top().first) {
        heap.pop();
        heap.emplace(d, i);
      }
    }
  }
  std::vector<NodeId> out(heap.size());
  for (std::size_t i = heap.size(); i-- > 0;) {
    out[i] = heap.top().second;
    heap.pop();
  }
  return out;
}

std::vector<NodeId> compute_filtered_ground_truth(
    const Dataset& ds, std::size_t k, const search::AcceptPredicate& accept,
    std::size_t threads) {
  const std::size_t q = ds.num_queries();
  k = std::min(k, ds.num_base());
  std::vector<NodeId> gt(q * k, kInvalidNode);
  BuildExecutor exec(threads);
  exec.parallel_for(q, [&](std::size_t begin, std::size_t end) {
    for (std::size_t i = begin; i < end; ++i) {
      auto topk = brute_force_topk(ds, ds.query(i), k, accept);
      std::copy(topk.begin(), topk.end(), gt.begin() + i * k);
    }
  });
  return gt;
}

void compute_ground_truth(Dataset& ds, std::size_t k, std::size_t threads) {
  k = std::min(k, ds.num_base());
  ds.set_ground_truth(
      compute_filtered_ground_truth(ds, k, search::AcceptPredicate{}, threads),
      k);
}

}  // namespace algas
