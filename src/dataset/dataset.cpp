#include "dataset/dataset.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <stdexcept>

#include "common/half.hpp"
#include "distance/kernels.hpp"

namespace algas {

namespace {

/// Index of the first row holding a value that float_to_half rounds to
/// infinity, or nullopt when every value fits in binary16.
std::optional<std::size_t> half_overflow_row(std::span<const float> rows,
                                             std::size_t dim) {
  const auto bad = std::find_if(rows.begin(), rows.end(), [](float v) {
    return (float_to_half(v) & 0x7fffu) == 0x7c00u;
  });
  if (bad == rows.end()) return std::nullopt;
  return static_cast<std::size_t>(bad - rows.begin()) / dim;
}

/// Throws std::invalid_argument (prefixed `who`) unless `rows` are whole,
/// finite rows of `dim` floats that encode under `codec`.
void check_rows(const char* who, std::span<const float> rows, std::size_t dim,
                StorageCodec codec) {
  const std::string at = who;
  if (dim == 0 ? !rows.empty() : rows.size() % dim != 0) {
    throw std::invalid_argument(at + ": data is not whole rows (got " +
                                std::to_string(rows.size()) +
                                " floats, dim=" + std::to_string(dim) + ")");
  }
  if (rows.empty()) return;
  if (const auto bad = non_finite_row(rows, dim)) {
    throw std::invalid_argument(at + ": row " + std::to_string(*bad) +
                                " holds a NaN or infinity");
  }
  if (codec != StorageCodec::kF16) return;
  if (const auto bad = half_overflow_row(rows, dim)) {
    throw std::invalid_argument(
        at + ": row " + std::to_string(*bad) +
        " overflows f16 storage (|x| >= 65520 encodes as infinity)");
  }
}

}  // namespace

void Dataset::rebuild_caches(std::size_t first) {
  const std::size_t n = num_base();
  store_.encode(base_.data(), n, dim_, codec_, first);
  if (metric_ != Metric::kCosine) return;
  base_norms_.resize(n);
  row_norms(encoded_rows(), first, n - first,
            std::span<float>(base_norms_).subspan(first));
}

void Dataset::set_base(std::vector<float> rows) {
  check_rows("set_base", rows, dim_, codec_);
  clear_ground_truth();
  clear_attributes();
  base_ = std::move(rows);
  rebuild_caches(0);
}

void Dataset::append_base(std::span<const float> rows) {
  check_rows("append_base", rows, dim_, codec_);
  clear_ground_truth();  // exact only for the pre-append base set
  clear_attributes();    // likewise: they describe only the old rows
  const std::size_t old_n = num_base();
  base_.insert(base_.end(), rows.begin(), rows.end());
  rebuild_caches(old_n);
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

void Dataset::set_storage(StorageCodec codec) {
  if (codec == codec_) return;
  check_rows("set_storage", base_, dim_, codec);
  codec_ = codec;
  rebuild_caches(0);  // quantized norms differ from f32 norms
}

float Dataset::score(std::span<const float> q, NodeId id) const {
  const NodeId ids[1] = {id};
  float out[1];
  distance_batch(q, ids, out);
  return out[0];
}

void Dataset::distance_batch(std::span<const float> query,
                             std::span<const NodeId> ids, std::span<float> out,
                             std::optional<float> query_norm) const {
  algas::distance_batch(metric_, query, encoded_rows(), ids, out, base_norms_,
                        query_norm);
}

std::optional<float> Dataset::query_norm(std::span<const float> query) const {
  if (metric_ != Metric::kCosine) return std::nullopt;
  return norm(query.first(dim_));
}

void Dataset::distance_batch_range(std::span<const float> query,
                                   std::size_t first, std::size_t count,
                                   std::span<float> out) const {
  algas::distance_batch_range(metric_, query, encoded_rows(), first, count,
                              out, base_norms_);
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
