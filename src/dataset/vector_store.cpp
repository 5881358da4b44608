#include "dataset/vector_store.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "common/half.hpp"

namespace algas {

const char* storage_codec_name(StorageCodec c) {
  switch (c) {
    case StorageCodec::kF32: return "f32";
    case StorageCodec::kF16: return "f16";
    case StorageCodec::kInt8: return "int8";
  }
  return "invalid";
}

StorageCodec parse_storage_codec(const std::string& s) {
  if (s == "f32") return StorageCodec::kF32;
  if (s == "f16") return StorageCodec::kF16;
  if (s == "int8") return StorageCodec::kInt8;
  throw std::invalid_argument("unknown storage codec: " + s +
                              " (expected f32|f16|int8)");
}

std::size_t storage_elem_bytes(StorageCodec c) {
  switch (c) {
    case StorageCodec::kF32: return sizeof(float);
    case StorageCodec::kF16: return sizeof(std::uint16_t);
    case StorageCodec::kInt8: return sizeof(std::int8_t);
  }
  return sizeof(float);
}

void VectorStore::encode(const float* base, std::size_t rows, std::size_t dim,
                         StorageCodec codec, std::size_t first) {
  if (first > 0 &&
      (codec != codec_ || dim != dim_ || first > rows_ || first > rows)) {
    throw std::invalid_argument(
        "VectorStore::encode: row " + std::to_string(first) +
        " is not a continuation of the " + std::to_string(rows_) +
        " rows encoded under " + storage_codec_name(codec_));
  }
  codec_ = codec;
  rows_ = rows;
  dim_ = dim;
  switch (codec) {
    case StorageCodec::kF32:
      // Nothing stored: scoring reads the caller's float rows directly.
      f16_.clear();
      i8_.clear();
      scales_.clear();
      f16_.shrink_to_fit();
      i8_.shrink_to_fit();
      scales_.shrink_to_fit();
      return;
    case StorageCodec::kF16: {
      i8_.clear();
      scales_.clear();
      f16_.resize(rows * dim);
      for (std::size_t k = first * dim; k < rows * dim; ++k) {
        f16_[k] = float_to_half(base[k]);
      }
      return;
    }
    case StorageCodec::kInt8: {
      f16_.clear();
      i8_.resize(rows * dim);
      scales_.resize(rows);
      for (std::size_t r = first; r < rows; ++r) {
        const float* row = base + r * dim;
        float max_abs = 0.0f;
        for (std::size_t d = 0; d < dim; ++d) {
          max_abs = std::max(max_abs, std::fabs(row[d]));
        }
        // Zero (or all-zero) rows get scale 0 and all-zero codes; the
        // dequantized row is exactly zero either way.
        const float scale = max_abs / 127.0f;
        scales_[r] = scale;
        std::int8_t* q = i8_.data() + r * dim;
        if (scale == 0.0f) {
          std::fill(q, q + dim, std::int8_t{0});
          continue;
        }
        for (std::size_t d = 0; d < dim; ++d) {
          const float v = std::round(row[d] / scale);
          q[d] = static_cast<std::int8_t>(
              std::clamp(v, -127.0f, 127.0f));
        }
      }
      return;
    }
  }
  throw std::invalid_argument("unknown storage codec");
}

EncodedRows VectorStore::view() const {
  const void* data = nullptr;
  if (codec_ == StorageCodec::kF16) data = f16_.data();
  if (codec_ == StorageCodec::kInt8) data = i8_.data();
  return {codec_, data, scales_.data(), dim_};
}

void VectorStore::decode_row(std::size_t i, std::span<float> out) const {
  switch (codec_) {
    case StorageCodec::kF32:
      throw std::logic_error("decode_row on an f32 store (nothing encoded)");
    case StorageCodec::kF16: {
      const std::uint16_t* row = f16_.data() + i * dim_;
      for (std::size_t d = 0; d < dim_; ++d) out[d] = half_to_float(row[d]);
      return;
    }
    case StorageCodec::kInt8: {
      const std::int8_t* row = i8_.data() + i * dim_;
      const float scale = scales_[i];
      for (std::size_t d = 0; d < dim_; ++d) {
        out[d] = scale * static_cast<float>(row[d]);
      }
      return;
    }
  }
}

std::size_t VectorStore::encoded_bytes() const {
  return f16_.size() * sizeof(std::uint16_t) + i8_.size() +
         scales_.size() * sizeof(float);
}

}  // namespace algas
