#include "dataset/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "distance/kernels.hpp"

namespace algas {

void Dataset::append_base(std::span<const float> rows) {
  if (dim_ == 0) {
    throw std::invalid_argument("append_base: dataset has no dimensionality");
  }
  if (rows.size() % dim_ != 0) {
    throw std::invalid_argument("append_base: data is not whole rows (got " +
                                std::to_string(rows.size()) +
                                " floats, dim=" + std::to_string(dim_) + ")");
  }
  if (const auto bad = non_finite_row(rows, dim_)) {
    throw std::invalid_argument("append_base: appended row " +
                                std::to_string(*bad) +
                                " holds a NaN or infinity");
  }
  clear_ground_truth();  // exact only for the pre-append base set
  clear_attributes();    // likewise: they describe only the old rows
  const bool had_norms = base_norms_.size() == num_base() && num_base() > 0;
  base_.insert(base_.end(), rows.begin(), rows.end());
  if (codec_ != StorageCodec::kF32) {
    store_.encode(base_.data(), num_base(), dim_, codec_);
    store_dirty_ = false;
  }
  // Extend (or, if never built, fully build) the norm cache while we still
  // hold exclusive write access, instead of leaving a lazy rebuild for the
  // first concurrent reader to trip over.
  if (had_norms || metric_ == Metric::kCosine) base_norms();
}

void Dataset::set_attributes(std::vector<std::uint32_t> categories,
                             std::vector<std::uint32_t> timestamps) {
  if (categories.size() != num_base() || timestamps.size() != num_base()) {
    throw std::invalid_argument(
        "set_attributes: need one (category, timestamp) pair per base row "
        "(got " + std::to_string(categories.size()) + "/" +
        std::to_string(timestamps.size()) + " for " +
        std::to_string(num_base()) + " rows)");
  }
  categories_ = std::move(categories);
  timestamps_ = std::move(timestamps);
}

void Dataset::warm_caches() const {
  if (metric_ == Metric::kCosine) base_norms();
  if (codec_ != StorageCodec::kF32) vector_store();
}

void Dataset::set_storage(StorageCodec codec) {
  if (codec == codec_ && !store_dirty_) return;
  codec_ = codec;
  base_norms_.clear();  // quantized norms differ from f32 norms
  store_.encode(base_.data(), num_base(), dim_, codec_);
  store_dirty_ = false;
}

const VectorStore& Dataset::vector_store() const {
  if (store_dirty_ || store_.rows() != num_base()) {
    store_.encode(base_.data(), num_base(), dim_, codec_);
    store_dirty_ = false;
  }
  return store_;
}

std::span<const float> Dataset::base_norms() const {
  const std::size_t n = num_base();
  if (base_norms_.size() != n) {
    // Per-row values, so extending a warm prefix after append_base() is
    // bit-identical to rebuilding from scratch; a stale oversized cache
    // (only possible through mutation paths that already clear it) is
    // rebuilt wholesale.
    if (base_norms_.size() > n) base_norms_.clear();
    std::size_t i = base_norms_.size();
    base_norms_.resize(n);
    if (codec_ == StorageCodec::kF32) {
      for (; i < n; ++i) {
        base_norms_[i] = norm(base_vector(i));
      }
    } else {
      // Norms of the decoded rows: exactly what the quantized kernels
      // recompute when no table is supplied, so the table keeps the
      // batched cosine bitwise-identical to table-free scoring.
      const VectorStore& vs = vector_store();
      std::vector<float> row(dim_);
      for (; i < n; ++i) {
        vs.decode_row(i, row);
        base_norms_[i] = norm(row);
      }
    }
  }
  return base_norms_;
}

float Dataset::score(std::span<const float> q, NodeId id) const {
  if (codec_ == StorageCodec::kF32) {
    return distance(metric_, q, base_vector(id));
  }
  const NodeId ids[1] = {id};
  float out[1];
  distance_batch(q, ids, out);
  return out[0];
}

void Dataset::distance_batch(std::span<const float> query,
                             std::span<const NodeId> ids, std::span<float> out,
                             std::optional<float> query_norm) const {
  const auto norms = metric_ == Metric::kCosine ? base_norms()
                                                : std::span<const float>{};
  switch (codec_) {
    case StorageCodec::kF32:
      algas::distance_batch(metric_, query, base_.data(), dim_, ids, out,
                            norms, query_norm);
      return;
    case StorageCodec::kF16: {
      const VectorStore& vs = vector_store();
      algas::distance_batch_f16(metric_, query, vs.f16_rows(), dim_, ids, out,
                                norms, query_norm);
      return;
    }
    case StorageCodec::kInt8: {
      const VectorStore& vs = vector_store();
      algas::distance_batch_i8(metric_, query, vs.i8_rows(),
                               vs.i8_scales().data(), dim_, ids, out, norms,
                               query_norm);
      return;
    }
  }
}

std::optional<float> Dataset::query_norm(std::span<const float> query) const {
  if (metric_ != Metric::kCosine) return std::nullopt;
  return norm(query.first(dim_));
}

void Dataset::distance_batch_range(std::span<const float> query,
                                   std::size_t first, std::size_t count,
                                   std::span<float> out) const {
  const auto norms = metric_ == Metric::kCosine ? base_norms()
                                                : std::span<const float>{};
  switch (codec_) {
    case StorageCodec::kF32:
      algas::distance_batch_range(metric_, query, base_.data(), dim_, first,
                                  count, out, norms);
      return;
    case StorageCodec::kF16: {
      const VectorStore& vs = vector_store();
      algas::distance_batch_range_f16(metric_, query, vs.f16_rows(), dim_,
                                      first, count, out, norms);
      return;
    }
    case StorageCodec::kInt8: {
      const VectorStore& vs = vector_store();
      algas::distance_batch_range_i8(metric_, query, vs.i8_rows(),
                                     vs.i8_scales().data(), dim_, first,
                                     count, out, norms);
      return;
    }
  }
}

std::string Dataset::describe() const {
  std::ostringstream out;
  out << name_ << "  n=" << num_base() << " d=" << dim_
      << " metric=" << metric_name(metric_) << " q=" << num_queries();
  if (has_ground_truth()) out << " gt_k=" << gt_k_;
  if (has_attributes()) out << " attrs";
  if (codec_ != StorageCodec::kF32) {
    out << " storage=" << storage_codec_name(codec_);
  }
  return out.str();
}

std::optional<std::size_t> non_finite_row(std::span<const float> rows,
                                          std::size_t dim) {
  const auto bad = std::find_if(rows.begin(), rows.end(),
                                [](float v) { return !std::isfinite(v); });
  if (bad == rows.end()) return std::nullopt;
  return static_cast<std::size_t>(bad - rows.begin()) / dim;
}

}  // namespace algas
