// In-memory dataset: base vectors, query vectors, ground truth.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "common/ownership.hpp"
#include "common/types.hpp"
#include "dataset/vector_store.hpp"
#include "distance/distance.hpp"

namespace algas {

class Dataset {
 public:
  Dataset() = default;
  Dataset(std::string name, std::size_t dim, Metric metric)
      : name_(std::move(name)), dim_(dim), metric_(metric) {}

  const std::string& name() const { return name_; }
  std::size_t dim() const { return dim_; }
  Metric metric() const { return metric_; }

  std::size_t num_base() const { return dim_ == 0 ? 0 : base_.size() / dim_; }
  std::size_t num_queries() const {
    return dim_ == 0 ? 0 : queries_.size() / dim_;
  }
  std::size_t gt_k() const { return gt_k_; }

  std::span<const float> base_vector(std::size_t i) const {
    return {base_.data() + i * dim_, dim_};
  }
  std::span<const float> query(std::size_t i) const {
    return {queries_.data() + i * dim_, dim_};
  }
  std::span<const NodeId> ground_truth(std::size_t q) const {
    return {gt_.data() + q * gt_k_, gt_k_};
  }

  /// Replace every base row. The rows must be whole (`rows.size()` a
  /// multiple of dim) and finite, and under the f16 codec every value must
  /// fit in binary16 (|x| < 65520); otherwise std::invalid_argument names
  /// the first bad row and nothing changes. Ground truth and attributes
  /// are dropped (they describe the old rows); the encoded store and, under
  /// cosine, the norm table are rebuilt before the call returns.
  void set_base(std::vector<float> rows);

  /// Append rows, validated like set_base — the dataset half of the
  /// streaming insert epoch hand-off (core::MutableIndex::stage). Ground
  /// truth and attributes are dropped (exact only for the pre-append rows),
  /// and the encoded store and the norm table are extended with the new
  /// rows' codes and norms (per-row values, so extension is bit-identical
  /// to a full rebuild), all while the caller still holds exclusive write
  /// access.
  void append_base(std::span<const float> rows);

  /// Drop ground truth (stale after appends or a compaction remap).
  void clear_ground_truth() {
    gt_.clear();
    gt_k_ = 0;
  }
  /// Replace every query row. The rows must be whole (`rows.size()` a
  /// multiple of dim) and finite; otherwise std::invalid_argument names the
  /// first bad row and nothing changes. Ground truth is dropped (it
  /// describes the old queries). Queries are scored as floats under every
  /// codec, so set_base's f16 range rule does not apply.
  void set_queries(std::vector<float> rows);
  /// Unchecked writer, left only for perfbench/workloads.cpp until the
  /// benchmark next changes; everything else calls set_queries.
  std::vector<float>& mutable_queries() { return queries_; }
  const std::vector<float>& base() const { return base_; }
  const std::vector<float>& queries() const { return queries_; }

  void set_ground_truth(std::vector<NodeId> gt, std::size_t k) {
    gt_ = std::move(gt);
    gt_k_ = k;
  }
  bool has_ground_truth() const { return gt_k_ > 0 && !gt_.empty(); }
  const std::vector<NodeId>& ground_truth_flat() const { return gt_; }

  /// Attach one (category, timestamp) attribute pair per base row — the
  /// metadata that search::AcceptPredicate bitsets are built from (CLI
  /// `--filter cat=K` / `--filter ts<T`, bench_filtered's selectivity
  /// tiers). Both vectors must have exactly num_base() entries. Attributes
  /// ride alongside the vectors: they never influence distances, graph
  /// construction, or any cache, so attaching them leaves every pinned
  /// search result byte-identical.
  void set_attributes(std::vector<std::uint32_t> categories,
                      std::vector<std::uint32_t> timestamps);
  bool has_attributes() const { return !categories_.empty(); }
  /// Per-row category / timestamp (valid only when has_attributes()).
  const std::vector<std::uint32_t>& categories() const { return categories_; }
  const std::vector<std::uint32_t>& timestamps() const { return timestamps_; }
  /// Drop attributes (e.g. after a compaction remap invalidates row ids).
  void clear_attributes() {
    categories_.clear();
    timestamps_.clear();
  }

  /// Select the base-row storage codec. f32 (the default) scores the flat
  /// float rows; f16/int8 encode the rows into the VectorStore, which the
  /// kernels dequantize in-register. The norm table is rebuilt (quantized
  /// norms are norms of the DECODED rows). Switching to f16 over a row that
  /// overflows binary16 throws std::invalid_argument naming the row, before
  /// anything changes. Note the codec is a runtime property — ground truth
  /// should be computed/loaded before quantizing so recall measures the
  /// quantization loss, not a quantized ground truth.
  void set_storage(StorageCodec codec);
  StorageCodec storage() const { return codec_; }
  /// Bytes per stored base element under the active codec (4 / 2 / 1) —
  /// what the cost model and shared-memory layout charge per dimension.
  std::size_t elem_bytes() const { return storage_elem_bytes(codec_); }

  /// The encoded store for the active codec; f32 returns the empty store
  /// (nothing encoded).
  const VectorStore& vector_store() const { return store_; }

  /// The base rows as the kernels score them: the float rows under f32,
  /// the encoded store's view otherwise. Inline: every batch call builds
  /// one.
  EncodedRows encoded_rows() const {
    if (codec_ == StorageCodec::kF32) {
      return {StorageCodec::kF32, base_.data(), nullptr, dim_};
    }
    return store_.view();
  }

  /// Distance from `query` to base row `id` under the dataset metric and
  /// the active storage codec: a batch of one. For f32 this is exactly
  /// distance(); for quantized codecs it scores the encoded row.
  float score(std::span<const float> q, NodeId id) const;

  /// Score base rows `ids` against `query` in one batched kernel call —
  /// bitwise-identical to per-id score() (see distance/kernels.hpp). The
  /// cosine path reads the cached base-norm table instead of recomputing
  /// norm(b) per call, and takes norm(query) from `query_norm` when the
  /// caller computed it once for many calls (query_norm(query)).
  void distance_batch(std::span<const float> query,
                      std::span<const NodeId> ids, std::span<float> out,
                      std::optional<float> query_norm = std::nullopt) const;

  /// The query norm distance_batch would compute for `query` under this
  /// metric: norm(query) for cosine, nullopt for metrics that need none.
  std::optional<float> query_norm(std::span<const float> query) const;

  /// query_norm(base_vector(i)) for scoring from base row i, read from the
  /// norm table where that is the same float: f32 rows under cosine
  /// (base_norms()[i] is norm(base_vector(i))). Otherwise nullopt, and
  /// distance_batch computes it: the f16/int8 tables hold decoded-row
  /// norms, not the f32 row's.
  std::optional<float> base_query_norm(std::size_t i) const {
    if (metric_ != Metric::kCosine || codec_ != StorageCodec::kF32) {
      return std::nullopt;
    }
    return base_norms()[i];
  }

  /// Batched scoring of the contiguous rows [first, first + count).
  void distance_batch_range(std::span<const float> query, std::size_t first,
                            std::size_t count, std::span<float> out) const;

  /// Per-row L2 norms of the rows AS SCORED under the active codec
  /// (norm(base_vector(i)) for f32, norm of the decoded row for f16/int8).
  /// Built under cosine only (empty otherwise), whenever the rows or the
  /// codec change.
  std::span<const float> base_norms() const { return base_norms_; }

  /// One-line summary ("SIFT-like  n=100000 d=128 metric=L2 q=1000").
  std::string describe() const;

 private:
  std::string name_;
  std::size_t dim_ = 0;
  Metric metric_ = Metric::kL2;
  std::vector<float> base_;
  std::vector<float> queries_;
  std::vector<NodeId> gt_;
  std::size_t gt_k_ = 0;
  /// Per-base-row attributes; both empty (no attributes) or both num_base()
  /// long. Dropped by append_base — like ground truth, they describe only
  /// the pre-append rows.
  std::vector<std::uint32_t> categories_;
  std::vector<std::uint32_t> timestamps_;
  StorageCodec codec_ = StorageCodec::kF32;
  /// Derived from base_ and codec_ by every call that changes either
  /// (set_base, append_base, set_storage), never by a read. Write rights
  /// rotate with the insert epoch: written only inside those calls, which
  /// the streaming index runs in its exclusive writer sections, and
  /// immutable while readers are admitted.
  std::vector<float> base_norms_ ALGAS_GUARDED_BY_EPOCH(Dataset);
  VectorStore store_ ALGAS_GUARDED_BY_EPOCH(Dataset);

  /// Encode the store and recompute the norm table (cosine only) from row
  /// `first` on; rows before `first` keep their codes, scales and norms.
  void rebuild_caches(std::size_t first);
};

/// Index of the first row (of `dim` floats) in `rows` holding a NaN or an
/// infinity, or nullopt when every value is finite. The ingress points
/// (read_fvecs, load_dataset, Dataset::set_base/append_base) reject such
/// rows, since a NaN distance compares false against everything
/// downstream.
std::optional<std::size_t> non_finite_row(std::span<const float> rows,
                                          std::size_t dim);

}  // namespace algas
