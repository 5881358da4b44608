// Property tests for the quantized base-vector storage layer:
// common/half.hpp conversions, the VectorStore codecs, the quantized batch
// kernels, and the Dataset storage plumbing.
//
// Two different contracts are checked with two different comparisons:
//   * parity — a quantized batch distance must BITWISE equal decoding the
//     row to floats and running the plain f32 chain (dequantize-in-register
//     changes nothing), so those tests use bit_cast equality;
//   * accuracy — quantized vs the ORIGINAL floats is lossy by design, so
//     round-trip tests assert analytic error bounds (half-ulp for f16,
//     scale/2 for int8). Recall impact is gated separately by
//     tools/recall_gate, which scripts/check_bench.py checks against
//     bench/recall_baseline.json.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/half.hpp"
#include "common/rng.hpp"
#include "dataset/dataset.hpp"
#include "distance/distance.hpp"
#include "distance/kernels.hpp"

namespace algas {
namespace {

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

// ---------------- half conversion ----------------

TEST(Half, EveryHalfRoundTripsExactly) {
  // half_to_float is exact and float_to_half must invert it: sweeping all
  // 65536 bit patterns proves both directions at once. NaNs only promise
  // to stay NaN (the payload is widened then re-narrowed, sign preserved).
  for (std::uint32_t h = 0; h < 0x10000u; ++h) {
    const auto half = static_cast<std::uint16_t>(h);
    const float f = half_to_float(half);
    if (std::isnan(f)) {
      const std::uint16_t back = float_to_half(f);
      EXPECT_EQ(back & 0x7c00u, 0x7c00u) << "h=" << h;
      EXPECT_NE(back & 0x03ffu, 0u) << "h=" << h;
      EXPECT_EQ(back & 0x8000u, half & 0x8000u) << "h=" << h;
    } else {
      EXPECT_EQ(float_to_half(f), half) << "h=" << h << " f=" << f;
    }
  }
}

TEST(Half, RoundsTiesToEven) {
  // Halfway between 1.0 (mant 0, even) and 1+2^-10 (mant 1, odd): down.
  EXPECT_EQ(float_to_half(1.0f + 0x1p-11f), 0x3c00u);
  // Halfway between 1+2^-10 (odd) and 1+2^-9 (mant 2, even): up.
  EXPECT_EQ(float_to_half(1.0f + 3 * 0x1p-11f), 0x3c02u);
  // Just off the tie goes to nearest regardless of parity.
  EXPECT_EQ(float_to_half(1.0f + 0x1p-11f + 0x1p-20f), 0x3c01u);
  EXPECT_EQ(float_to_half(1.0f + 0x1p-11f - 0x1p-20f), 0x3c00u);
}

TEST(Half, OverflowRoundsToInfinity) {
  EXPECT_EQ(float_to_half(65504.0f), 0x7bffu);   // largest finite half
  EXPECT_EQ(float_to_half(65519.0f), 0x7bffu);   // below the halfway point
  EXPECT_EQ(float_to_half(65520.0f), 0x7c00u);   // tie, 0x3ff is odd: up
  EXPECT_EQ(float_to_half(1e6f), 0x7c00u);
  EXPECT_EQ(float_to_half(-1e6f), 0xfc00u);
  const float inf = std::numeric_limits<float>::infinity();
  EXPECT_EQ(float_to_half(inf), 0x7c00u);
  EXPECT_EQ(float_to_half(-inf), 0xfc00u);
}

TEST(Half, DenormalBoundaries) {
  EXPECT_EQ(float_to_half(0x1p-24f), 0x0001u);   // smallest half denormal
  EXPECT_EQ(float_to_half(0x1p-25f), 0x0000u);   // tie with zero: even, down
  EXPECT_EQ(float_to_half(3 * 0x1p-26f), 0x0001u);  // above the tie: up
  EXPECT_EQ(float_to_half(0x1p-26f), 0x0000u);   // below the half-ulp
  EXPECT_EQ(float_to_half(0x1p-14f), 0x0400u);   // smallest normal half
  EXPECT_EQ(bits(half_to_float(0x0001u)), bits(0x1p-24f));
  EXPECT_EQ(bits(half_to_float(0x03ffu)), bits(0x1p-14f - 0x1p-24f));
}

TEST(Half, SignedZeroAndNegativesSurvive) {
  EXPECT_EQ(float_to_half(0.0f), 0x0000u);
  EXPECT_EQ(float_to_half(-0.0f), 0x8000u);
  EXPECT_EQ(bits(half_to_float(0x8000u)), bits(-0.0f));
  EXPECT_EQ(float_to_half(-1.0f), 0xbc00u);
  EXPECT_EQ(bits(half_to_float(0xbc00u)), bits(-1.0f));
}

TEST(Half, RandomRoundTripWithinHalfUlp) {
  Rng rng(99);
  for (int i = 0; i < 20000; ++i) {
    const float v = rng.next_gaussian() * 8.0f;
    const float back = half_to_float(float_to_half(v));
    // RNE error bound: half a half-ulp — relative 2^-11 for normals,
    // absolute 2^-25 below the normal range.
    const float tol = std::max(std::fabs(v) * 0x1p-11f, 0x1p-25f);
    EXPECT_LE(std::fabs(back - v), tol) << "v=" << v;
  }
}

// ---------------- VectorStore codecs ----------------

std::vector<float> make_rows(std::size_t rows, std::size_t dim,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> base(rows * dim, 0.0f);
  // Row 0 all-zero (zero-scale / zero-norm path); the rest gaussian with a
  // few denormal and negative-denormal entries mixed in.
  for (std::size_t i = dim; i < base.size(); ++i) {
    base[i] = rng.next_gaussian();
    if (i % 97 == 0) base[i] = 0x1p-30f;
    if (i % 101 == 0) base[i] = -0x1p-26f;
  }
  return base;
}

TEST(VectorStore, CodecNamesParseAndRoundTrip) {
  for (StorageCodec c : {StorageCodec::kF32, StorageCodec::kF16,
                         StorageCodec::kInt8}) {
    EXPECT_EQ(parse_storage_codec(storage_codec_name(c)), c);
  }
  EXPECT_EQ(storage_elem_bytes(StorageCodec::kF32), 4u);
  EXPECT_EQ(storage_elem_bytes(StorageCodec::kF16), 2u);
  EXPECT_EQ(storage_elem_bytes(StorageCodec::kInt8), 1u);
  EXPECT_THROW(parse_storage_codec("fp16"), std::invalid_argument);
  EXPECT_THROW(parse_storage_codec(""), std::invalid_argument);
}

TEST(VectorStore, F32HoldsNothingAndRefusesDecode) {
  const auto base = make_rows(5, 8, 1);
  VectorStore vs;
  vs.encode(base.data(), 5, 8, StorageCodec::kF32);
  EXPECT_EQ(vs.codec(), StorageCodec::kF32);
  EXPECT_EQ(vs.encoded_bytes(), 0u);
  std::vector<float> out(8);
  EXPECT_THROW(vs.decode_row(0, out), std::logic_error);
}

TEST(VectorStore, Int8PerRowScaleIsMaxAbsOver127) {
  constexpr std::size_t kRows = 9, kDim = 13;
  const auto base = make_rows(kRows, kDim, 2);
  VectorStore vs;
  vs.encode(base.data(), kRows, kDim, StorageCodec::kInt8);
  ASSERT_EQ(vs.i8_scales().size(), kRows);
  EXPECT_EQ(bits(vs.i8_scales()[0]), bits(0.0f));  // all-zero row
  for (std::size_t r = 1; r < kRows; ++r) {
    float max_abs = 0.0f;
    int max_code = 0;
    for (std::size_t d = 0; d < kDim; ++d) {
      max_abs = std::max(max_abs, std::fabs(base[r * kDim + d]));
      max_code = std::max(max_code,
                          std::abs(static_cast<int>(vs.i8_rows()[r * kDim + d])));
    }
    EXPECT_EQ(bits(vs.i8_scales()[r]), bits(max_abs / 127.0f)) << "row " << r;
    // The max-|v| element maps to exactly +-127; nothing exceeds it.
    EXPECT_EQ(max_code, 127) << "row " << r;
  }
}

TEST(VectorStore, RoundTripErrorBoundsAcrossDims) {
  // Sweep dims across the kernel tail boundaries, including the extremes
  // the issue pins (1 and 257).
  for (std::size_t dim : {1u, 2u, 3u, 4u, 5u, 7u, 8u, 16u, 17u, 31u, 32u,
                          33u, 64u, 127u, 128u, 129u, 256u, 257u}) {
    constexpr std::size_t kRows = 7;
    const auto base = make_rows(kRows, dim, dim * 31 + 7);
    for (StorageCodec codec : {StorageCodec::kF16, StorageCodec::kInt8}) {
      VectorStore vs;
      vs.encode(base.data(), kRows, dim, codec);
      EXPECT_EQ(vs.rows(), kRows);
      EXPECT_EQ(vs.dim(), dim);
      std::vector<float> row(dim);
      for (std::size_t r = 0; r < kRows; ++r) {
        vs.decode_row(r, row);
        for (std::size_t d = 0; d < dim; ++d) {
          const float v = base[r * dim + d];
          float tol;
          if (codec == StorageCodec::kF16) {
            tol = std::max(std::fabs(v) * 0x1p-11f, 0x1p-25f);
          } else {
            // Round-to-nearest code: at most half a quantization step.
            tol = vs.i8_scales()[r] * 0.5f;
          }
          EXPECT_LE(std::fabs(row[d] - v), tol)
              << storage_codec_name(codec) << " dim=" << dim << " r=" << r
              << " d=" << d;
        }
        if (r == 0) {  // all-zero row decodes to exactly zero
          for (std::size_t d = 0; d < dim; ++d) {
            EXPECT_EQ(bits(row[d]), bits(0.0f));
          }
        }
      }
    }
  }
}

TEST(VectorStore, EncodedBytesMatchCodecWidth) {
  const auto base = make_rows(6, 10, 3);
  VectorStore vs;
  vs.encode(base.data(), 6, 10, StorageCodec::kF16);
  EXPECT_EQ(vs.encoded_bytes(), 6u * 10u * 2u);
  vs.encode(base.data(), 6, 10, StorageCodec::kInt8);
  EXPECT_EQ(vs.encoded_bytes(), 6u * 10u * 1u + 6u * sizeof(float));
  vs.encode(base.data(), 6, 10, StorageCodec::kF32);
  EXPECT_EQ(vs.encoded_bytes(), 0u);
}

// ---------------- quantized kernels: the parity property ----------------

constexpr Metric kMetrics[] = {Metric::kL2, Metric::kInnerProduct,
                               Metric::kCosine};

/// Materialize the decoded matrix a quantized kernel implicitly scores.
std::vector<float> decoded_matrix(const VectorStore& vs) {
  std::vector<float> out(vs.rows() * vs.dim());
  for (std::size_t r = 0; r < vs.rows(); ++r) {
    vs.decode_row(r, {out.data() + r * vs.dim(), vs.dim()});
  }
  return out;
}

/// The cosine norm table of a decoded matrix: norm() of each row.
std::vector<float> decoded_norms(const std::vector<float>& decoded,
                                 std::size_t dim) {
  std::vector<float> norms(decoded.size() / dim);
  for (std::size_t r = 0; r < norms.size(); ++r) {
    norms[r] = norm({decoded.data() + r * dim, dim});
  }
  return norms;
}

TEST(QuantizedKernels, BatchBitwiseEqualsF32OnDecodedRows) {
  constexpr std::size_t kRows = 67;
  for (std::size_t dim : {1u, 3u, 16u, 33u, 128u, 257u}) {
    const auto base = make_rows(kRows, dim, dim + 41);
    Rng qr(dim);
    std::vector<float> query(dim);
    for (auto& v : query) v = qr.next_gaussian();

    std::vector<NodeId> ids;
    for (std::size_t i = 0; i < kRows; i += 2) {
      ids.push_back(static_cast<NodeId>(i));
    }
    ids.push_back(0);  // duplicate + zero row

    for (StorageCodec codec : {StorageCodec::kF16, StorageCodec::kInt8}) {
      VectorStore vs;
      vs.encode(base.data(), kRows, dim, codec);
      const auto decoded = decoded_matrix(vs);
      const EncodedRows plain{StorageCodec::kF32, decoded.data(), nullptr,
                              dim};
      const auto norms = decoded_norms(decoded, dim);
      for (Metric m : kMetrics) {
        std::vector<float> got(ids.size()), want(ids.size());
        distance_batch(m, query, plain, ids, want, norms);
        distance_batch(m, query, vs.view(), ids, got, norms);
        for (std::size_t k = 0; k < ids.size(); ++k) {
          EXPECT_EQ(bits(got[k]), bits(want[k]))
              << storage_codec_name(codec) << " " << metric_name(m)
              << " dim=" << dim << " k=" << k;
        }
        // Per-id scalar chain on the decoded row agrees too.
        for (std::size_t k = 0; k < ids.size(); ++k) {
          const std::span<const float> row{decoded.data() + ids[k] * dim, dim};
          EXPECT_EQ(bits(got[k]), bits(distance(m, query, row)))
              << storage_codec_name(codec) << " " << metric_name(m)
              << " dim=" << dim << " k=" << k;
        }
      }
    }
  }
}

TEST(QuantizedKernels, RangeVariantAndNormTableBitwiseParity) {
  constexpr std::size_t kRows = 41, kDim = 19;
  const auto base = make_rows(kRows, kDim, 77);
  Rng qr(78);
  std::vector<float> query(kDim);
  for (auto& v : query) v = qr.next_gaussian();

  for (StorageCodec codec : {StorageCodec::kF16, StorageCodec::kInt8}) {
    VectorStore vs;
    vs.encode(base.data(), kRows, kDim, codec);
    const auto decoded = decoded_matrix(vs);
    const EncodedRows plain{StorageCodec::kF32, decoded.data(), nullptr,
                            kDim};
    // Cosine norm table = norms of the DECODED rows, which row_norms
    // computes from the encoded rows bit for bit.
    const auto norms = decoded_norms(decoded, kDim);
    std::vector<float> encoded_norms(kRows);
    row_norms(vs.view(), 0, kRows, encoded_norms);
    for (std::size_t r = 0; r < kRows; ++r) {
      EXPECT_EQ(bits(encoded_norms[r]), bits(norms[r]))
          << storage_codec_name(codec) << " row " << r;
    }
    for (Metric m : kMetrics) {
      const std::size_t starts[] = {0, 1, 5, kRows - 1};
      for (std::size_t first : starts) {
        const std::size_t counts[] = {0, 1, 4, 9, kRows - first};
        for (std::size_t count : counts) {
          if (first + count > kRows) continue;
          std::vector<float> got(count), want(count);
          distance_batch_range(m, query, plain, first, count, want, norms);
          distance_batch_range(m, query, vs.view(), first, count, got, norms);
          for (std::size_t k = 0; k < count; ++k) {
            EXPECT_EQ(bits(got[k]), bits(want[k]))
                << storage_codec_name(codec) << " " << metric_name(m)
                << " first=" << first << " count=" << count << " k=" << k;
          }
        }
      }
    }
  }
}

// ---------------- Dataset plumbing ----------------

Dataset quantizable_dataset(Metric m) {
  Dataset ds("vs-test", 17, m);
  ds.set_base(make_rows(60, 17, 5));
  Rng qr(6);
  std::vector<float> queries(3 * 17);
  for (auto& v : queries) v = qr.next_gaussian();
  ds.mutable_queries() = queries;
  return ds;
}

TEST(DatasetStorage, F32CodecIsTheIdentityPath) {
  for (Metric m : kMetrics) {
    Dataset ds = quantizable_dataset(m);
    Dataset plain = quantizable_dataset(m);
    ds.set_storage(StorageCodec::kF32);
    EXPECT_EQ(ds.storage(), StorageCodec::kF32);
    EXPECT_EQ(ds.elem_bytes(), 4u);
    std::vector<NodeId> ids{0, 7, 7, 59, 13};
    std::vector<float> got(ids.size()), want(ids.size());
    ds.distance_batch(ds.query(0), ids, got);
    plain.distance_batch(plain.query(0), ids, want);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      EXPECT_EQ(bits(got[k]), bits(want[k])) << metric_name(m) << " k=" << k;
      EXPECT_EQ(bits(got[k]),
                bits(distance(m, plain.query(0), plain.base_vector(ids[k]))));
    }
  }
}

TEST(DatasetStorage, QuantizedScoreAndBatchAgreeBitwise) {
  for (Metric m : kMetrics) {
    for (StorageCodec codec : {StorageCodec::kF16, StorageCodec::kInt8}) {
      Dataset ds = quantizable_dataset(m);
      ds.set_storage(codec);
      EXPECT_EQ(ds.storage(), codec);
      EXPECT_EQ(ds.elem_bytes(), storage_elem_bytes(codec));
      std::vector<NodeId> ids{0, 1, 7, 7, 59, 13, 0};
      std::vector<float> out(ids.size());
      ds.distance_batch(ds.query(1), ids, out);
      std::vector<float> row(ds.dim());
      for (std::size_t k = 0; k < ids.size(); ++k) {
        // Batch == per-id score == scalar distance on the decoded row.
        EXPECT_EQ(bits(out[k]), bits(ds.score(ds.query(1), ids[k])))
            << storage_codec_name(codec) << " " << metric_name(m);
        ds.vector_store().decode_row(ids[k], row);
        EXPECT_EQ(bits(out[k]),
                  bits(distance(m, ds.query(1),
                                {row.data(), row.size()})))
            << storage_codec_name(codec) << " " << metric_name(m);
      }
    }
  }
}

TEST(DatasetStorage, BaseNormsAreDecodedRowNorms) {
  Dataset ds = quantizable_dataset(Metric::kCosine);
  ds.set_storage(StorageCodec::kInt8);
  const auto norms = ds.base_norms();
  std::vector<float> row(ds.dim());
  for (std::size_t i = 0; i < ds.num_base(); ++i) {
    ds.vector_store().decode_row(i, row);
    EXPECT_EQ(bits(norms[i]), bits(norm({row.data(), row.size()})))
        << "row " << i;
  }
}

TEST(DatasetStorage, SetBaseRebuildsScalesAndNorms) {
  Dataset ds = quantizable_dataset(Metric::kCosine);
  ds.set_storage(StorageCodec::kInt8);
  const float scale_before = ds.vector_store().i8_scales()[1];
  const float norm_before = ds.base_norms()[1];

  // Blow up row 1: every cached artifact derived from it must follow.
  std::vector<float> base = ds.base();
  for (std::size_t d = 0; d < ds.dim(); ++d) {
    base[1 * ds.dim() + d] *= 64.0f;
  }
  ds.set_base(std::move(base));

  const float scale_after = ds.vector_store().i8_scales()[1];
  EXPECT_EQ(bits(scale_after), bits(scale_before * 64.0f));
  const float norm_after = ds.base_norms()[1];
  std::vector<float> row(ds.dim());
  ds.vector_store().decode_row(1, row);
  EXPECT_EQ(bits(norm_after), bits(norm({row.data(), row.size()})));
  EXPECT_NE(bits(norm_after), bits(norm_before));

  // Scoring sees the new encoding immediately.
  std::vector<NodeId> ids{1};
  std::vector<float> out(1);
  ds.distance_batch(ds.query(0), ids, out);
  EXPECT_EQ(bits(out[0]), bits(distance(Metric::kCosine, ds.query(0), row)));
}

TEST(DatasetStorage, F16OverflowRejectedAtEveryIngress) {
  // 65504 is the largest binary16; from 65520 up, float_to_half rounds to
  // infinity, which would score as +inf (L2) or NaN (cosine, IP).
  EXPECT_EQ(half_to_float(float_to_half(65504.0f)), 65504.0f);
  for (Metric m : kMetrics) {
    Dataset ds = quantizable_dataset(m);
    std::vector<float> fits = ds.base();
    fits[5 * ds.dim() + 3] = 65504.0f;
    ds.set_base(fits);
    ds.set_storage(StorageCodec::kF16);  // 65504.0f encodes

    std::vector<float> big = fits;
    big[7 * ds.dim() + 2] = 70000.0f;
    const std::vector<float> row(big.begin() + 7 * ds.dim(),
                                 big.begin() + 8 * ds.dim());
    const std::vector<NodeId> ids{0, 5, 59};
    std::vector<float> before(ids.size()), after(ids.size());
    ds.distance_batch(ds.query(0), ids, before);
    try {
      ds.set_base(big);
      ADD_FAILURE() << "set_base accepted an f16 overflow";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find("row 7 "), std::string::npos)
          << e.what();
    }
    EXPECT_THROW(ds.append_base(row), std::invalid_argument);
    EXPECT_EQ(ds.storage(), StorageCodec::kF16);
    EXPECT_EQ(ds.base(), fits);
    ds.distance_batch(ds.query(0), ids, after);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      EXPECT_EQ(bits(after[k]), bits(before[k])) << metric_name(m);
    }

    // Switching an f32 dataset holding the row to f16 throws too.
    Dataset wide = quantizable_dataset(m);
    wide.set_base(big);
    std::vector<float> wide_before(ids.size()), wide_after(ids.size());
    wide.distance_batch(wide.query(0), ids, wide_before);
    EXPECT_THROW(wide.set_storage(StorageCodec::kF16), std::invalid_argument);
    EXPECT_EQ(wide.storage(), StorageCodec::kF32);
    EXPECT_EQ(wide.base(), big);
    wide.distance_batch(wide.query(0), ids, wide_after);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      EXPECT_EQ(bits(wide_after[k]), bits(wide_before[k])) << metric_name(m);
    }
  }
}

TEST(DatasetStorage, DescribeMentionsOnlyQuantizedCodecs) {
  Dataset ds = quantizable_dataset(Metric::kL2);
  EXPECT_EQ(ds.describe().find("storage="), std::string::npos);
  ds.set_storage(StorageCodec::kF16);
  EXPECT_NE(ds.describe().find("storage=f16"), std::string::npos);
}

}  // namespace
}  // namespace algas
