// Property tests for the batched distance kernels (distance/kernels.hpp)
// and the epochs of the generation-stamped StampedSet (common/node_set.hpp).
//
// The batched kernels promise BITWISE-identical results to per-point
// distance() calls, so every comparison here is on the float's bit pattern
// (EXPECT_EQ via bit_cast), never EXPECT_NEAR.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "common/node_set.hpp"
#include "common/rng.hpp"
#include "dataset/dataset.hpp"
#include "distance/distance.hpp"
#include "distance/kernels.hpp"

namespace algas {
namespace {

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

/// Deterministic base matrix of `n` rows x `dim`; row 0 is all-zero to
/// exercise the cosine zero-norm guard.
std::vector<float> make_base(std::size_t n, std::size_t dim,
                             std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> base(n * dim, 0.0f);
  for (std::size_t i = dim; i < base.size(); ++i) {
    base[i] = rng.next_gaussian();
  }
  return base;
}

/// f32 view of a row-major matrix.
EncodedRows f32_rows(const std::vector<float>& base, std::size_t dim) {
  return {StorageCodec::kF32, base.data(), nullptr, dim};
}

/// The cosine norm table of `base`: norm() of each row.
std::vector<float> norm_table(const std::vector<float>& base,
                              std::size_t dim) {
  std::vector<float> norms(base.size() / dim);
  for (std::size_t i = 0; i < norms.size(); ++i) {
    norms[i] = norm({base.data() + i * dim, dim});
  }
  return norms;
}

std::vector<float> make_query(std::size_t dim, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<float> q(dim);
  for (auto& v : q) v = rng.next_gaussian();
  return q;
}

constexpr Metric kMetrics[] = {Metric::kL2, Metric::kInnerProduct,
                               Metric::kCosine};

// Sweep dims around every tail-handling boundary (odd sizes, powers of two,
// one off either side) and batch sizes across the 4-wide ILP groups.
constexpr std::size_t kDims[] = {1,  2,  3,  4,   5,   7,   8,   9,
                                 15, 16, 17, 31,  32,  33,  63,  64,
                                 65, 96, 127, 128, 129, 255, 256, 257};
constexpr std::size_t kBatchSizes[] = {0,  1,  2,  3,  4,   5,   7,  8,
                                       9,  15, 16, 17, 31,  32,  33, 63,
                                       64, 65, 127, 128, 129};

TEST(DistanceBatch, BitwiseMatchesScalarAcrossDimsMetricsAndBatches) {
  constexpr std::size_t kRows = 129;
  for (std::size_t dim : kDims) {
    const auto base = make_base(kRows, dim, /*seed=*/dim);
    const auto norms = norm_table(base, dim);
    const auto query = make_query(dim, /*seed=*/dim * 7919 + 1);
    for (Metric m : kMetrics) {
      for (std::size_t count : kBatchSizes) {
        // Random ids with natural duplicates; always include the zero row
        // and a forced duplicate pair when the batch is big enough.
        Rng rng(dim * 131 + count);
        std::vector<NodeId> ids(count);
        for (auto& id : ids) {
          id = static_cast<NodeId>(rng.next_below(kRows));
        }
        if (count >= 2) {
          ids[0] = 0;  // zero row: cosine guard
          ids[1] = ids[count - 1];  // explicit duplicate
        }
        std::vector<float> out(count, -1.0f);
        distance_batch(m, query, f32_rows(base, dim), ids, out, norms);
        // The caller-computed query norm path (one norm per query, many
        // batches) must score the same bits.
        std::vector<float> passed(count, -1.0f);
        distance_batch(m, query, f32_rows(base, dim), ids, passed, norms,
                       norm(query));
        for (std::size_t k = 0; k < count; ++k) {
          const std::span<const float> row{base.data() + ids[k] * dim, dim};
          EXPECT_EQ(bits(out[k]), bits(distance(m, query, row)))
              << "metric=" << metric_name(m) << " dim=" << dim
              << " count=" << count << " k=" << k << " id=" << ids[k];
          EXPECT_EQ(bits(passed[k]), bits(out[k]))
              << "passed norm: metric=" << metric_name(m) << " dim=" << dim
              << " count=" << count << " k=" << k;
        }
      }
    }
  }
}

TEST(DistanceBatch, RangeVariantBitwiseMatchesScalar) {
  constexpr std::size_t kRows = 129;
  for (std::size_t dim : {1u, 3u, 32u, 129u}) {
    const auto base = make_base(kRows, dim, /*seed=*/dim + 17);
    const auto norms = norm_table(base, dim);
    const auto query = make_query(dim, /*seed=*/dim + 18);
    for (Metric m : kMetrics) {
      // Ranges covering start, interior, tail, and the whole matrix.
      const std::size_t starts[] = {0, 1, 5, kRows - 1};
      const std::size_t counts[] = {0, 1, 4, 7, kRows};
      for (std::size_t first : starts) {
        for (std::size_t count : counts) {
          if (first + count > kRows) continue;
          std::vector<float> out(count, -1.0f);
          distance_batch_range(m, query, f32_rows(base, dim), first, count,
                               out, norms);
          for (std::size_t k = 0; k < count; ++k) {
            const std::span<const float> row{base.data() + (first + k) * dim,
                                             dim};
            EXPECT_EQ(bits(out[k]), bits(distance(m, query, row)))
                << "metric=" << metric_name(m) << " dim=" << dim
                << " first=" << first << " count=" << count << " k=" << k;
          }
        }
      }
    }
  }
}

TEST(DistanceBatch, EmptySpansAreNoOps) {
  const auto base = make_base(4, 8, 3);
  const auto query = make_query(8, 4);
  const auto rows = f32_rows(base, 8);
  distance_batch(Metric::kL2, query, rows, {}, {});
  distance_batch_range(Metric::kCosine, query, rows, 2, 0, {});
  // out larger than ids: only the first ids.size() entries are written.
  std::vector<float> out(3, -7.0f);
  std::vector<NodeId> one_id{2};
  distance_batch(Metric::kL2, query, rows, one_id, out);
  EXPECT_EQ(out[1], -7.0f);
  EXPECT_EQ(out[2], -7.0f);
}

TEST(DistanceBatch, RowNormsBitwiseMatchNorm) {
  for (std::size_t dim : kDims) {
    const auto base = make_base(9, dim, dim + 5);  // row 0 is all-zero
    std::vector<float> got(7, -1.0f);
    row_norms(f32_rows(base, dim), 2, 7, got);
    for (std::size_t k = 0; k < 7; ++k) {
      EXPECT_EQ(bits(got[k]), bits(norm({base.data() + (2 + k) * dim, dim})))
          << "dim=" << dim << " row " << 2 + k;
    }
    row_norms(f32_rows(base, dim), 0, 1, got);
    EXPECT_EQ(bits(got[0]), bits(0.0f)) << "dim=" << dim;
  }
}

TEST(DistanceBatch, CosineWithoutNormTableThrows) {
  const auto base = make_base(6, 8, 5);
  const auto query = make_query(8, 6);
  const auto rows = f32_rows(base, 8);
  std::vector<NodeId> ids{1, 4};
  std::vector<float> out(ids.size());
  EXPECT_THROW(distance_batch(Metric::kCosine, query, rows, ids, out),
               std::invalid_argument);
  EXPECT_THROW(distance_batch_range(Metric::kCosine, query, rows, 1, 2, out),
               std::invalid_argument);
  // The other metrics read no norms.
  distance_batch(Metric::kL2, query, rows, ids, out);
  distance_batch_range(Metric::kInnerProduct, query, rows, 1, 2, out);
}

TEST(DatasetBatch, MemberBatchBitwiseMatchesQueryDistance) {
  for (Metric m : kMetrics) {
    Dataset ds("t", 17, m);
    ds.set_base(make_base(50, 17, 11));
    ds.mutable_queries() = make_query(17, 12);
    std::vector<NodeId> ids{0, 3, 3, 49, 7, 0};
    std::vector<float> out(ids.size());
    ds.distance_batch(ds.query(0), ids, out);
    for (std::size_t k = 0; k < ids.size(); ++k) {
      EXPECT_EQ(bits(out[k]), bits(ds.score(ds.query(0), ids[k])))
          << metric_name(m) << " k=" << k;
      EXPECT_EQ(bits(out[k]),
                bits(distance(m, ds.query(0), ds.base_vector(ids[k]))))
          << metric_name(m) << " k=" << k;
    }
  }
}

TEST(DatasetBatch, PassedQueryNormBitwiseMatchesEveryCodec) {
  for (Metric m : kMetrics) {
    for (StorageCodec codec : {StorageCodec::kF32, StorageCodec::kF16,
                               StorageCodec::kInt8}) {
      Dataset ds("t", 33, m);
      ds.set_base(make_base(40, 33, 21));
      ds.mutable_queries() = make_query(33, 22);
      ds.set_storage(codec);
      const auto q = ds.query(0);
      EXPECT_EQ(ds.query_norm(q).has_value(), m == Metric::kCosine);
      std::vector<NodeId> ids{0, 5, 5, 39, 12, 1, 30};
      std::vector<float> plain(ids.size()), passed(ids.size());
      ds.distance_batch(q, ids, plain);
      ds.distance_batch(q, ids, passed, ds.query_norm(q));
      for (std::size_t k = 0; k < ids.size(); ++k) {
        EXPECT_EQ(bits(passed[k]), bits(plain[k]))
            << metric_name(m) << " " << storage_codec_name(codec)
            << " k=" << k;
      }
    }
  }
}

TEST(DatasetBatch, SetBaseRebuildsNormCache) {
  Dataset ds("t", 4, Metric::kCosine);
  ds.set_base({1.0f, 0.0f, 0.0f, 0.0f, 0.0f, 2.0f, 0.0f, 0.0f});
  EXPECT_EQ(bits(ds.base_norms()[1]), bits(2.0f));
  ds.set_base({1.0f, 0.0f, 0.0f, 0.0f, 3.0f, 2.0f, 0.0f, 0.0f});
  const auto norms = ds.base_norms();  // rebuilt by set_base
  ASSERT_EQ(norms.size(), 2u);
  EXPECT_EQ(bits(norms[1]), bits(norm(ds.base_vector(1))));
  std::vector<NodeId> ids{1};
  std::vector<float> out(1);
  ds.distance_batch(ds.base_vector(0), ids, out);
  EXPECT_EQ(bits(out[0]),
            bits(distance(Metric::kCosine, ds.base_vector(0),
                          ds.base_vector(1))));
}

// ---------------- StampedSet epochs ----------------
// One set serves as the per-query visited table and as the streaming
// tombstones, so these cover both.

TEST(VisitedEpochs, ClearStartsANewGenerationWithoutTouchingStamps) {
  StampedSet vt(8);
  EXPECT_TRUE(vt.insert(3));
  EXPECT_FALSE(vt.insert(3));
  EXPECT_TRUE(vt.contains(3));
  EXPECT_EQ(vt.count(), 1u);

  const auto gen_before = vt.generation();
  vt.clear();
  EXPECT_EQ(vt.generation(), gen_before + 1);
  EXPECT_FALSE(vt.contains(3));  // old stamp, new epoch
  EXPECT_EQ(vt.count(), 0u);

  // Second generation behaves like a fresh set.
  EXPECT_TRUE(vt.insert(3));
  EXPECT_TRUE(vt.insert(5));
  EXPECT_FALSE(vt.insert(5));
  EXPECT_EQ(vt.count(), 2u);

  // Third generation: nodes from both prior epochs read as non-members.
  vt.clear();
  EXPECT_FALSE(vt.contains(3));
  EXPECT_FALSE(vt.contains(5));
  EXPECT_TRUE(vt.insert(5));
}

TEST(VisitedEpochs, WraparoundForcesFullStampReset) {
  StampedSet vt(4);
  EXPECT_TRUE(vt.insert(2));  // stamped with generation 1

  // Drive the 16-bit generation all the way around. After 65535 clears the
  // counter would hit 0; the set must fully reset stamps and restart at
  // generation 1 without node 2's stale stamp reading as a member.
  const std::uint32_t kClears = 65535;
  for (std::uint32_t i = 0; i < kClears; ++i) vt.clear();
  EXPECT_EQ(vt.generation(), 1u);
  EXPECT_FALSE(vt.contains(2));
  EXPECT_EQ(vt.count(), 0u);
  EXPECT_TRUE(vt.insert(2));
  EXPECT_TRUE(vt.contains(2));
}

TEST(VisitedEpochs, GrowPreservesTheCurrentEpoch) {
  // Streaming inserts grow the set on every publish; the live epoch must
  // survive so mid-flight marks stay valid and the grow is O(new nodes).
  StampedSet vt(4);
  vt.clear();
  vt.clear();  // generation 3
  vt.insert(1);
  vt.insert(3);
  vt.resize(10);
  EXPECT_EQ(vt.size(), 10u);
  EXPECT_EQ(vt.generation(), 3u);
  EXPECT_TRUE(vt.contains(1));
  EXPECT_TRUE(vt.contains(3));
  EXPECT_EQ(vt.count(), 2u);
  EXPECT_EQ(vt.ids(), (std::vector<NodeId>{1, 3}));
  // Appended nodes start as non-members in this and every later generation.
  for (std::size_t i = 4; i < 10; ++i) EXPECT_FALSE(vt.contains(i));
  vt.clear();
  for (std::size_t i = 0; i < 10; ++i) EXPECT_FALSE(vt.contains(i));
}

TEST(VisitedEpochs, ShrinkOrSameSizeResetsEverything) {
  // A shrink follows a compaction remap — the surviving prefix's stamps are
  // for the OLD ids, so the historical full-reset semantics stay.
  for (const std::size_t new_size : {3u, 4u}) {
    StampedSet vt(4);
    vt.insert(1);
    vt.clear();
    vt.clear();
    vt.resize(new_size);
    EXPECT_EQ(vt.size(), new_size);
    EXPECT_EQ(vt.generation(), 1u);
    EXPECT_EQ(vt.count(), 0u);
    for (std::size_t i = 0; i < new_size; ++i) EXPECT_FALSE(vt.contains(i));
  }
}

TEST(VisitedEpochs, WraparoundStaysCorrectAcrossAGrow) {
  // Property: after any interleaving of clears and grows, a node marked in
  // a PRIOR epoch never reads as a member, including across the 16-bit
  // generation wraparound. Node 2 is stamped just before the counter
  // wraps; the grown nodes' zero stamps must also survive the reset.
  StampedSet vt(4);
  for (std::uint32_t i = 0; i < 65533; ++i) vt.clear();  // generation 65534
  vt.insert(2);
  vt.resize(8);  // grow mid-epoch
  EXPECT_EQ(vt.generation(), 65534u);
  EXPECT_TRUE(vt.contains(2));
  EXPECT_FALSE(vt.contains(6));
  vt.clear();  // 65535
  vt.insert(6);
  vt.clear();  // wraps: full stamp reset, back to generation 1
  EXPECT_EQ(vt.generation(), 1u);
  for (std::size_t i = 0; i < 8; ++i) EXPECT_FALSE(vt.contains(i));
  EXPECT_TRUE(vt.ids().empty());
  EXPECT_TRUE(vt.insert(2));
  EXPECT_TRUE(vt.contains(2));
  EXPECT_EQ(vt.ids(), (std::vector<NodeId>{2}));
}

}  // namespace
}  // namespace algas
