// IVF-Flat baseline (FAISS-GPU style [Johnson et al.]): k-means coarse
// quantizer + inverted lists; search scans the nprobe closest lists
// exhaustively. The non-graph comparator of Figs 10/11.
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "dataset/dataset.hpp"
#include "search/kv.hpp"

namespace algas::baselines {

struct IvfBuildConfig {
  /// Number of inverted lists; 0 = sqrt(n) heuristic.
  std::size_t nlist = 0;
  std::uint64_t seed = 11;
};

class IvfIndex {
 public:
  static IvfIndex build(const Dataset& ds, const IvfBuildConfig& cfg);

  std::size_t nlist() const { return lists_.size(); }
  std::size_t list_size(std::size_t i) const { return lists_[i].size(); }

  struct SearchOut {
    std::vector<KV> topk;        ///< ascending
    std::size_t scanned = 0;     ///< points exhaustively scored
  };
  SearchOut search(const Dataset& ds, std::span<const float> query,
                   std::size_t nprobe, std::size_t k) const;

  /// Squared-L2 distance from `query` to every centroid — the coarse scan
  /// search() runs, exposed so the sharded engine can reuse a per-shard
  /// quantizer as a shard-affinity router (min centroid distance decides
  /// which shards a fanout-limited query probes).
  std::vector<float> centroid_distances(std::span<const float> query) const;

 private:
  std::size_t dim_ = 0;
  std::vector<float> centroids_;           // nlist x dim
  std::vector<std::vector<NodeId>> lists_;
};

struct IvfConfig {
  std::size_t topk = 16;
  std::size_t nprobe = 8;      ///< recall knob
  std::size_t batch_size = 16;
  IvfBuildConfig build;
  sim::DeviceProps device = sim::DeviceProps::rtx_a6000();
  sim::CostModel cost;
};

/// Batch-synchronous IVF engine: one CTA per query, wave-scheduled, batch
/// barrier semantics like the other static baselines.
class IvfEngine {
 public:
  IvfEngine(const Dataset& ds, IvfConfig cfg);
  /// Reuse a prebuilt index (e.g. when sweeping nprobe).
  IvfEngine(const Dataset& ds, IvfConfig cfg, IvfIndex index);

  const IvfIndex& index() const { return index_; }
  core::EngineReport run_closed_loop(std::size_t num_queries);

 private:
  const Dataset& ds_;
  IvfConfig cfg_;
  IvfIndex index_;
  std::size_t capacity_ = 1;
};

}  // namespace algas::baselines
