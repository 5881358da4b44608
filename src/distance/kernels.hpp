// Batched distance kernels — the host-side mirror of one warp's coalesced
// distance round (§IV-B step 3): score a whole gathered expand list against
// one query in a single call.
//
// Rows arrive as one view, EncodedRows, tagged with their storage codec.
// Each call dispatches on the codec once and then runs one templated loop
// over that codec's row accessor; nothing branches on the codec per row or
// per element.
//
// Every result is BITWISE-IDENTICAL to calling distance() once per point:
// each row is scored alone, in distance()'s warp lane order (32 lanes, lane
// l summing dimensions l, l + 32, ..., then the pairwise shuffle tree; no
// fast-math, no FMA contraction). Two tiers keep that promise, chosen once
// per process by what the host supports (distance_kernel_name()); neither
// is a setting.
//
//   avx2      x86-64 hosts with AVX2 and F16C: four 8-float registers hold
//             the 32 lanes, and one 8-element loader per codec widens the
//             row (loadu for f32, vcvtph2ps for f16, int-to-float times the
//             row scale for int8). Every codec and batch size runs it.
//   portable  Everything else: the lane loop over the codec's row accessor.
//             row_norms runs it on every host.
//
// DESIGN.md "Warp lane order" gives the exactness argument. Around the
// sum, both tiers dispatch the codec once per batch, hoist the query norm
// out of the cosine loop and prefetch upcoming base rows.
//
// f16/int8 rows dequantize each element in-register (half widening /
// scale * q) before it enters the same lane partial, so a quantized
// batch result is bitwise-equal to decoding the row into floats and running
// the f32 kernel on it — the property the VectorStore tests pin. Quantized
// results are NOT bitwise-equal to f32 scoring of the original rows; that
// gap is what the recall gate (tools/recall_gate, checked by
// scripts/check_bench.py against bench/recall_baseline.json) bounds.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "common/types.hpp"
#include "distance/distance.hpp"

namespace algas {

enum class StorageCodec : std::uint8_t {
  kF32 = 0,  ///< native float rows (bit-identical fast path)
  kF16,      ///< IEEE binary16 rows
  kInt8,     ///< int8 rows with a per-row symmetric scale
};

/// A borrowed, row-major view of base rows under one codec: `dim` elements
/// per row at `data` (floats, binary16 bits or int8 codes). int8 row i
/// dequantizes element j as scales[i] * code[i * dim + j]; `scales` is
/// unused by the other codecs. The owner (Dataset, VectorStore) must
/// outlive every call that reads the view.
struct EncodedRows {
  StorageCodec codec = StorageCodec::kF32;
  const void* data = nullptr;
  const float* scales = nullptr;
  std::size_t dim = 0;
};

/// Score rows `ids` of `rows` against `query`, writing distance(m, query,
/// decoded row) into `out[k]` for `ids[k]`. `out.size()` must be >=
/// `ids.size()`; duplicate ids are fine.
///
/// `norms` is the per-row L2-norm table (norm of decoded row i at index i).
/// The cosine metric reads it and needs it: a non-empty cosine batch with
/// an empty table throws std::invalid_argument. Other metrics ignore it.
/// An entry must equal row_norms() of its row bitwise for the batched
/// cosine to stay bitwise-identical to the scalar kernel.
///
/// `query_norm`, when set, must equal norm(query.first(rows.dim)) bitwise.
/// The cosine metric then uses it instead of recomputing the norm on every
/// call, which is what a caller scoring one query over many small batches
/// (a search's expand rounds) wants; other metrics ignore it.
void distance_batch(Metric m, std::span<const float> query,
                    const EncodedRows& rows, std::span<const NodeId> ids,
                    std::span<float> out, std::span<const float> norms = {},
                    std::optional<float> query_norm = std::nullopt);

/// Contiguous variant: score rows [first, first + count), writing out[k]
/// for row first + k. Used by the exhaustive scans (ground truth, IVF
/// coarse/list scans, medoid) where the id list is a range.
void distance_batch_range(Metric m, std::span<const float> query,
                          const EncodedRows& rows, std::size_t first,
                          std::size_t count, std::span<float> out,
                          std::span<const float> norms = {});

/// The batch kernel this process runs: "avx2" (the 32 lanes in four AVX2
/// registers, on x86-64 hosts with AVX2 and F16C) or "portable" (the lane
/// loop). Read-only: the host decides it once, and every kernel writes the
/// same bits, so it explains wall-clock numbers and nothing else.
const char* distance_kernel_name();

/// out[k] = norm of decoded row first + k: bitwise norm() of the row as
/// the kernels score it. This is how a cosine norm table is built.
void row_norms(const EncodedRows& rows, std::size_t first, std::size_t count,
               std::span<float> out);

}  // namespace algas
