// Quantized base-vector storage (SoA rows) — the codec layer under Dataset.
//
// Three codecs over the same row-major layout:
//   f32  — today's flat float rows; the store holds nothing and every
//          caller reads the Dataset's own float array (bit-identical path).
//   f16  — IEEE binary16 rows, round-to-nearest-even on encode
//          (common/half.hpp); 2 bytes/element, exact dequantization.
//   int8 — per-row symmetric scale quantization: scale = max|row|/127,
//          q = round(v/scale) clamped to [-127,127], dequant v' = q*scale;
//          1 byte/element + one float scale per row.
//
// Scoring NEVER materializes decoded rows: view() hands the encoded rows
// to the batched kernels, which dequantize in-register
// (distance/kernels.hpp), so a quantized distance is bitwise equal to
// decoding the row and running the f32 kernel. decode_row serves tests and
// tooling only.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "distance/kernels.hpp"

namespace algas {

/// Short stable name ("f32", "f16", "int8") — used by the CLI flag, the
/// bench knob, cache keys, traces, and the recall-gate JSON.
const char* storage_codec_name(StorageCodec c);

/// Parse a codec name; throws std::invalid_argument on anything else.
StorageCodec parse_storage_codec(const std::string& s);

/// Bytes per stored element under the codec (4 / 2 / 1).
std::size_t storage_elem_bytes(StorageCodec c);

/// Encoded row storage for one codec. Empty (rows()==0) until encode().
class VectorStore {
 public:
  VectorStore() = default;

  /// Encode rows [first, rows) of the `rows` rows of `dim` floats at
  /// `base` under `codec`, keeping the codes and scales of the rows before
  /// `first`. Encoding is per row, so the store is bitwise what encoding
  /// every row gives. A nonzero `first` must not pass the rows already
  /// encoded under the same codec and dim (std::invalid_argument
  /// otherwise). f32 releases all storage (the caller keeps scoring its
  /// float array).
  void encode(const float* base, std::size_t rows, std::size_t dim,
              StorageCodec codec, std::size_t first = 0);

  StorageCodec codec() const { return codec_; }
  std::size_t rows() const { return rows_; }
  std::size_t dim() const { return dim_; }
  std::size_t elem_bytes() const { return storage_elem_bytes(codec_); }

  /// The encoded rows as the kernels read them. An f32 store holds
  /// nothing, so its view has no data: f32 rows live with their owner.
  EncodedRows view() const;

  /// int8 codes, row-major (int8 codec; empty otherwise).
  const std::int8_t* i8_rows() const { return i8_.data(); }
  /// Per-row dequantization scales (int8 codec; empty otherwise).
  std::span<const float> i8_scales() const { return scales_; }

  /// Decode row `i` into `out` (size >= dim). Produces exactly the floats
  /// the scoring kernels dequantize in-register. f32 decode is invalid —
  /// the store holds nothing for it.
  void decode_row(std::size_t i, std::span<float> out) const;

  /// Total bytes held by the encoded representation (diagnostics).
  std::size_t encoded_bytes() const;

 private:
  StorageCodec codec_ = StorageCodec::kF32;
  std::size_t rows_ = 0;
  std::size_t dim_ = 0;
  std::vector<std::uint16_t> f16_;
  std::vector<std::int8_t> i8_;
  std::vector<float> scales_;
};

}  // namespace algas
