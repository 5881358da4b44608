#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "dataset/dataset.hpp"
#include "dataset/ground_truth.hpp"
#include "dataset/io.hpp"
#include "dataset/registry.hpp"
#include "dataset/synthetic.hpp"
#include "distance/distance.hpp"

namespace algas {
namespace {

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

// ---------------- synthetic.hpp ----------------

TEST(Synthetic, ShapesMatchSpec) {
  SyntheticSpec spec;
  spec.num_base = 500;
  spec.num_queries = 40;
  spec.dim = 24;
  const Dataset ds = make_synthetic(spec);
  EXPECT_EQ(ds.num_base(), 500u);
  EXPECT_EQ(ds.num_queries(), 40u);
  EXPECT_EQ(ds.dim(), 24u);
  EXPECT_EQ(ds.base().size(), 500u * 24);
}

TEST(Synthetic, Deterministic) {
  SyntheticSpec spec;
  spec.num_base = 100;
  spec.dim = 8;
  const Dataset a = make_synthetic(spec);
  const Dataset b = make_synthetic(spec);
  EXPECT_EQ(a.base(), b.base());
  spec.seed += 1;
  const Dataset c = make_synthetic(spec);
  EXPECT_NE(a.base(), c.base());
}

TEST(Synthetic, CosineVectorsNormalized) {
  SyntheticSpec spec = glove_like_spec();
  spec.num_base = 200;
  spec.num_queries = 20;
  const Dataset ds = make_synthetic(spec);
  for (std::size_t i = 0; i < ds.num_base(); ++i) {
    EXPECT_NEAR(norm(ds.base_vector(i)), 1.0f, 1e-4f);
  }
  for (std::size_t i = 0; i < ds.num_queries(); ++i) {
    EXPECT_NEAR(norm(ds.query(i)), 1.0f, 1e-4f);
  }
}

TEST(Synthetic, TableIIISpecsMatchPaper) {
  EXPECT_EQ(sift_like_spec().dim, 128u);
  EXPECT_EQ(sift_like_spec().metric, Metric::kL2);
  EXPECT_EQ(gist_like_spec().dim, 960u);
  EXPECT_EQ(gist_like_spec().metric, Metric::kL2);
  EXPECT_EQ(glove_like_spec().dim, 200u);
  EXPECT_EQ(glove_like_spec().metric, Metric::kCosine);
  EXPECT_EQ(nytimes_like_spec().dim, 256u);
  EXPECT_EQ(nytimes_like_spec().metric, Metric::kCosine);
}

TEST(Synthetic, ClusteredIsNotUniform) {
  // Points drawn from a mixture must be denser near their centers than a
  // uniform draw: mean pairwise distance should be clearly below uniform's.
  SyntheticSpec spec;
  spec.num_base = 400;
  spec.dim = 16;
  spec.clusters = 8;
  spec.spread = 0.02;
  spec.background_fraction = 0.0;  // isolate the mixture's effect
  const Dataset ds = make_synthetic(spec);
  double within = 0.0;
  int pairs = 0;
  for (std::size_t i = 0; i + 1 < 100; ++i) {
    within += l2_sq(ds.base_vector(i), ds.base_vector(i + 1));
    ++pairs;
  }
  // Uniform in [0,1]^16 has expected pair distance^2 = 16/6 ~= 2.67.
  EXPECT_LT(within / pairs, 2.3);
}

// ---------------- ground_truth.hpp ----------------

TEST(GroundTruth, ExactOnTinyData) {
  Dataset ds("tiny", 2, Metric::kL2);
  // Base points on a line: 0, 1, 2, 3, 4 along x.
  ds.set_base({0.0f, 0.0f, 1.0f, 0.0f, 2.0f, 0.0f, 3.0f, 0.0f, 4.0f, 0.0f});
  ds.mutable_queries() = {2.2f, 0.0f};
  compute_ground_truth(ds, 3);
  const auto gt = ds.ground_truth(0);
  EXPECT_EQ(gt[0], 2u);
  EXPECT_EQ(gt[1], 3u);
  EXPECT_EQ(gt[2], 1u);
}

TEST(GroundTruth, AscendingByDistance) {
  SyntheticSpec spec;
  spec.num_base = 300;
  spec.num_queries = 10;
  spec.dim = 8;
  Dataset ds = make_synthetic(spec);
  compute_ground_truth(ds, 10);
  for (std::size_t q = 0; q < ds.num_queries(); ++q) {
    const auto gt = ds.ground_truth(q);
    for (std::size_t i = 1; i < gt.size(); ++i) {
      EXPECT_LE(ds.score(ds.query(q), gt[i - 1]),
                ds.score(ds.query(q), gt[i]));
    }
  }
}

TEST(GroundTruth, KClampedToBaseSize) {
  SyntheticSpec spec;
  spec.num_base = 5;
  spec.num_queries = 2;
  spec.dim = 4;
  Dataset ds = make_synthetic(spec);
  compute_ground_truth(ds, 100);
  EXPECT_EQ(ds.gt_k(), 5u);
}

// ---------------- io.hpp ----------------

TEST(Io, FvecsRoundTrip) {
  const std::string path = temp_path("algas_test.fvecs");
  const std::vector<float> data{1.0f, 2.0f, 3.0f, 4.0f, 5.0f, 6.0f};
  write_fvecs(path, data, 3);
  std::size_t dim = 0;
  const auto read = read_fvecs(path, dim);
  EXPECT_EQ(dim, 3u);
  EXPECT_EQ(read, data);
  std::remove(path.c_str());
}

TEST(Io, FvecsRejectsNonFinite) {
  const std::string path = temp_path("algas_test_nonfinite.fvecs");
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    write_fvecs(path, {1.0f, 2.0f, 3.0f, 4.0f, bad, 6.0f}, 3);
    std::size_t dim = 0;
    try {
      read_fvecs(path, dim);
      ADD_FAILURE() << "read_fvecs accepted " << bad;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find("row 1"), std::string::npos) << what;
    }
  }
  std::remove(path.c_str());
}

TEST(Io, IvecsRoundTrip) {
  const std::string path = temp_path("algas_test.ivecs");
  const std::vector<std::int32_t> data{9, 8, 7, 6};
  write_ivecs(path, data, 2);
  std::size_t dim = 0;
  const auto read = read_ivecs(path, dim);
  EXPECT_EQ(dim, 2u);
  EXPECT_EQ(read, data);
  std::remove(path.c_str());
}

TEST(Io, RejectsBadWrites) {
  EXPECT_THROW(write_fvecs(temp_path("x.fvecs"), {1.0f, 2.0f, 3.0f}, 2),
               std::invalid_argument);
  std::size_t dim = 0;
  EXPECT_THROW(read_fvecs("/nonexistent/nope.fvecs", dim),
               std::runtime_error);
}

TEST(Io, DatasetRoundTripWithGroundTruth) {
  SyntheticSpec spec;
  spec.num_base = 64;
  spec.num_queries = 8;
  spec.dim = 12;
  spec.metric = Metric::kCosine;
  spec.name = "roundtrip";
  Dataset ds = make_synthetic(spec);
  compute_ground_truth(ds, 5);

  const std::string path = temp_path("algas_test.abin");
  save_dataset(ds, path);
  const Dataset loaded = load_dataset(path);
  EXPECT_EQ(loaded.name(), "roundtrip");
  EXPECT_EQ(loaded.dim(), 12u);
  EXPECT_EQ(loaded.metric(), Metric::kCosine);
  EXPECT_EQ(loaded.base(), ds.base());
  EXPECT_EQ(loaded.queries(), ds.queries());
  EXPECT_EQ(loaded.gt_k(), 5u);
  EXPECT_EQ(loaded.ground_truth_flat(), ds.ground_truth_flat());
  std::remove(path.c_str());
}

TEST(Io, TexmexTripleLoads) {
  const std::string base_p = temp_path("algas_base.fvecs");
  const std::string query_p = temp_path("algas_query.fvecs");
  const std::string gt_p = temp_path("algas_gt.ivecs");
  // 4 base vectors in 2-d, 2 queries, gt depth 2.
  write_fvecs(base_p, {1.0f, 0.0f, 0.0f, 2.0f, 3.0f, 0.0f, 0.0f, 4.0f}, 2);
  write_fvecs(query_p, {1.1f, 0.0f, 0.0f, 3.9f}, 2);
  write_ivecs(gt_p, {0, 2, 3, 1}, 2);

  const Dataset ds =
      load_texmex("texmex-test", base_p, query_p, gt_p, Metric::kCosine);
  EXPECT_EQ(ds.num_base(), 4u);
  EXPECT_EQ(ds.num_queries(), 2u);
  EXPECT_EQ(ds.dim(), 2u);
  EXPECT_EQ(ds.gt_k(), 2u);
  EXPECT_EQ(ds.ground_truth(0)[0], 0u);
  EXPECT_EQ(ds.ground_truth(1)[0], 3u);
  // Cosine load normalizes.
  for (std::size_t i = 0; i < 4; ++i) {
    EXPECT_NEAR(norm(ds.base_vector(i)), 1.0f, 1e-5f);
  }
  std::remove(base_p.c_str());
  std::remove(query_p.c_str());
  std::remove(gt_p.c_str());
}

TEST(Io, TexmexRejectsMismatch) {
  const std::string base_p = temp_path("algas_base2.fvecs");
  const std::string query_p = temp_path("algas_query2.fvecs");
  write_fvecs(base_p, {1.0f, 2.0f}, 2);
  write_fvecs(query_p, {1.0f, 2.0f, 3.0f}, 3);
  EXPECT_THROW(load_texmex("bad", base_p, query_p, "", Metric::kL2),
               std::runtime_error);
  std::remove(base_p.c_str());
  std::remove(query_p.c_str());
}

TEST(Io, TexmexGtOutOfRangeRejected) {
  const std::string base_p = temp_path("algas_base3.fvecs");
  const std::string query_p = temp_path("algas_query3.fvecs");
  const std::string gt_p = temp_path("algas_gt3.ivecs");
  write_fvecs(base_p, {1.0f, 0.0f}, 2);
  write_fvecs(query_p, {1.0f, 0.0f}, 2);
  write_ivecs(gt_p, {5}, 1);  // id 5 out of range for 1 base vector
  EXPECT_THROW(load_texmex("bad", base_p, query_p, gt_p, Metric::kL2),
               std::runtime_error);
  std::remove(base_p.c_str());
  std::remove(query_p.c_str());
  std::remove(gt_p.c_str());
}

TEST(Io, RejectsWrongMagic) {
  const std::string path = temp_path("algas_bad.abin");
  write_fvecs(path, {1.0f, 2.0f}, 2);
  EXPECT_THROW(load_dataset(path), std::runtime_error);
  std::remove(path.c_str());
}

/// The fields of one `.abin` file in save_dataset's order, each settable
/// so a case can break exactly one. The defaults are a valid 4-row, 1-query
/// L2 set at dim 2 with ground-truth depth 1.
struct RawAbin {
  std::string name = "raw";
  std::uint64_t name_len = 3;
  std::uint64_t dim = 2;
  std::uint32_t metric = 0;
  std::uint64_t gt_k = 1;
  std::vector<float> base{0.0f, 0.0f, 1.0f, 0.0f, 0.0f, 1.0f, 1.0f, 1.0f};
  std::uint64_t base_len = 8;
  std::vector<float> queries{0.9f, 0.9f};
  std::vector<NodeId> gt{3};

  void write(const std::string& path) const {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    auto pod = [&](const auto& v) {
      out.write(reinterpret_cast<const char*>(&v), sizeof(v));
    };
    auto vec = [&](const auto& v, std::uint64_t declared) {
      pod(declared);
      out.write(reinterpret_cast<const char*>(v.data()),
                static_cast<std::streamsize>(v.size() * sizeof(v[0])));
    };
    out.write("ALGASDS1", 8);
    pod(name_len);
    out.write(name.data(), static_cast<std::streamsize>(name.size()));
    pod(dim);
    pod(metric);
    pod(gt_k);
    vec(base, base_len);
    vec(queries, std::uint64_t{queries.size()});
    vec(gt, std::uint64_t{gt.size()});
  }
};

TEST(Io, DatasetRejectsMalformed) {
  const std::string path = temp_path("algas_malformed.abin");
  RawAbin valid;
  valid.write(path);
  const Dataset ok = load_dataset(path);
  ASSERT_EQ(ok.num_base(), 4u);
  ASSERT_EQ(ok.ground_truth(0)[0], 3u);

  struct Case {
    const char* defect;
    RawAbin raw;
  };
  std::vector<Case> cases;
  auto add = [&](const char* defect, auto&& mutate) {
    RawAbin raw;
    mutate(raw);
    cases.push_back({defect, raw});
  };
  add("ground truth holds", [](RawAbin& r) { r.gt_k = 2; });
  add("unknown metric 7", [](RawAbin& r) { r.metric = 7; });
  add("not whole rows of dim 3", [](RawAbin& r) {
    r.dim = 3;
    r.queries = {0.5f, 0.5f, 0.5f};
  });
  add("base row 2 holds a NaN", [](RawAbin& r) {
    r.base[5] = std::numeric_limits<float>::quiet_NaN();
  });
  add("ground-truth id 99 out of range", [](RawAbin& r) { r.gt = {99}; });
  add("base declares", [](RawAbin& r) { r.base_len = std::uint64_t{1} << 60; });
  add("name declares", [](RawAbin& r) { r.name_len = std::uint64_t{1} << 62; });

  for (const Case& c : cases) {
    c.raw.write(path);
    try {
      load_dataset(path);
      ADD_FAILURE() << "loaded a file with: " << c.defect;
    } catch (const std::runtime_error& e) {
      const std::string what = e.what();
      EXPECT_NE(what.find(path), std::string::npos) << what;
      EXPECT_NE(what.find(c.defect), std::string::npos) << what;
    }
  }
  std::remove(path.c_str());
}

// ---------------- registry.hpp ----------------

TEST(Registry, NamesAndUnknown) {
  const auto names = bench_dataset_names();
  ASSERT_EQ(names.size(), 4u);
  EXPECT_EQ(names[0], "sift");
  EXPECT_THROW(
      load_bench_dataset_sized("not-a-dataset", 10, 2, 1, false),
      std::invalid_argument);
}

TEST(Registry, SizedLoadWithoutCache) {
  const Dataset ds = load_bench_dataset_sized("nytimes", 300, 10, 8, false);
  EXPECT_EQ(ds.num_base(), 300u);
  EXPECT_EQ(ds.num_queries(), 10u);
  EXPECT_EQ(ds.dim(), 256u);
  EXPECT_EQ(ds.metric(), Metric::kCosine);
  EXPECT_EQ(ds.gt_k(), 8u);
}

TEST(Dataset, DescribeMentionsKeyFacts) {
  const Dataset ds = load_bench_dataset_sized("sift", 100, 4, 2, false);
  const std::string d = ds.describe();
  EXPECT_NE(d.find("n=100"), std::string::npos);
  EXPECT_NE(d.find("d=128"), std::string::npos);
  EXPECT_NE(d.find("L2"), std::string::npos);
}

// ---------------- streaming appends ----------------

/// Two-cluster toy rows so appended vectors are distinguishable.
Dataset two_part_ds(Metric metric, std::size_t head, std::size_t tail,
                    std::vector<float>* tail_rows) {
  SyntheticSpec spec;
  spec.name = "append";
  spec.num_base = head + tail;
  spec.num_queries = 4;
  spec.dim = 8;
  spec.metric = metric;
  spec.seed = 77;
  const Dataset full = make_synthetic(spec);
  tail_rows->assign(full.base().begin() +
                        static_cast<std::ptrdiff_t>(head * full.dim()),
                    full.base().end());
  Dataset ds(full.name(), full.dim(), full.metric());
  ds.mutable_queries() = full.queries();
  ds.append_base({full.base().data(), head * full.dim()});
  return ds;
}

TEST(DatasetAppend, ExtendsNormCacheBitIdentically) {
  // The norm cache must be extended per-row at append time (the exclusive
  // half of the insert epoch hand-off), never lazily rebuilt by a later
  // concurrent reader — and extension must equal a from-scratch build.
  std::vector<float> tail;
  Dataset ds = two_part_ds(Metric::kCosine, 60, 40, &tail);
  const auto before = ds.base_norms();  // built at the publish point
  ASSERT_EQ(before.size(), 60u);
  ds.append_base(tail);
  const auto after = ds.base_norms();
  ASSERT_EQ(after.size(), 100u);

  Dataset oneshot("oneshot", ds.dim(), ds.metric());
  std::vector<float> all(ds.base());
  oneshot.append_base(all);
  const auto reference = oneshot.base_norms();
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(after[i], reference[i]) << "norm " << i;
  }
}

TEST(DatasetAppend, ReencodesQuantizedStoreEagerly) {
  std::vector<float> tail;
  Dataset ds = two_part_ds(Metric::kL2, 50, 30, &tail);
  ds.set_storage(StorageCodec::kInt8);  // encodes the head
  ds.append_base(tail);
  // Scores over appended rows must match a dataset quantized in one shot.
  Dataset oneshot("oneshot", ds.dim(), ds.metric());
  std::vector<float> all(ds.base());
  oneshot.append_base(all);
  oneshot.set_storage(StorageCodec::kInt8);
  const auto q = ds.query(0);
  for (NodeId v = 0; v < 80; ++v) {
    EXPECT_EQ(ds.score(q, v), oneshot.score(q, v)) << "row " << v;
  }
}

TEST(DatasetAppend, EncodesOnlyNewRowsBitIdentically) {
  // Appends encode only the new rows; the store must still be bitwise what
  // one set_base of the same rows gives: codes, scales, norms and scores.
  for (const StorageCodec codec : {StorageCodec::kF16, StorageCodec::kInt8}) {
    SCOPED_TRACE(storage_codec_name(codec));
    std::vector<float> tail;
    const Dataset full = two_part_ds(Metric::kCosine, 90, 0, &tail);
    const std::size_t dim = full.dim();
    Dataset appended(full.name(), dim, full.metric());
    appended.set_storage(codec);
    for (const std::size_t first : {0u, 25u, 65u}) {
      const std::size_t count = first == 25 ? 40 : 25;
      appended.append_base({full.base().data() + first * dim, count * dim});
    }
    Dataset oneshot(full.name(), dim, full.metric());
    oneshot.set_storage(codec);
    oneshot.set_base(full.base());

    const VectorStore& a = appended.vector_store();
    const VectorStore& b = oneshot.vector_store();
    ASSERT_EQ(a.rows(), 90u);
    ASSERT_EQ(a.encoded_bytes(), b.encoded_bytes());
    const std::size_t code_bytes = 90 * dim * a.elem_bytes();
    EXPECT_EQ(std::memcmp(a.view().data, b.view().data, code_bytes), 0);
    ASSERT_EQ(a.i8_scales().size(), b.i8_scales().size());
    for (std::size_t r = 0; r < a.i8_scales().size(); ++r) {
      EXPECT_EQ(a.i8_scales()[r], b.i8_scales()[r]) << "scale " << r;
    }
    ASSERT_EQ(appended.base_norms().size(), 90u);
    for (std::size_t r = 0; r < 90; ++r) {
      EXPECT_EQ(appended.base_norms()[r], oneshot.base_norms()[r])
          << "norm " << r;
    }
    const auto q = full.query(1);
    for (NodeId v = 0; v < 90; ++v) {
      EXPECT_EQ(appended.score(q, v), oneshot.score(q, v)) << "row " << v;
    }
  }
  // A continuation must extend rows encoded under the same codec.
  VectorStore store;
  const std::vector<float> rows(4 * 8, 0.5f);
  store.encode(rows.data(), 2, 8, StorageCodec::kF16);
  EXPECT_THROW(store.encode(rows.data(), 4, 8, StorageCodec::kInt8, 2),
               std::invalid_argument);
  EXPECT_THROW(store.encode(rows.data(), 4, 8, StorageCodec::kF16, 3),
               std::invalid_argument);
  store.encode(rows.data(), 4, 8, StorageCodec::kF16, 2);
  EXPECT_EQ(store.rows(), 4u);
}

TEST(DatasetAppend, DropsStaleGroundTruthAndValidatesShape) {
  std::vector<float> tail;
  Dataset ds = two_part_ds(Metric::kL2, 40, 20, &tail);
  compute_ground_truth(ds, 4);
  ASSERT_TRUE(ds.has_ground_truth());
  ds.append_base(tail);
  EXPECT_FALSE(ds.has_ground_truth());  // exact only for the old row set
  EXPECT_EQ(ds.num_base(), 60u);

  EXPECT_THROW(ds.append_base({tail.data(), 3}), std::invalid_argument);
  Dataset dimless;
  EXPECT_THROW(dimless.append_base(tail), std::invalid_argument);

  // Non-finite rows are rejected before anything changes: a NaN distance
  // compares false against everything downstream.
  compute_ground_truth(ds, 4);
  const std::vector<float> before = ds.base();
  for (const float bad : {std::numeric_limits<float>::quiet_NaN(),
                          std::numeric_limits<float>::infinity(),
                          -std::numeric_limits<float>::infinity()}) {
    std::vector<float> rows = tail;
    rows[ds.dim() + 1] = bad;  // second row
    EXPECT_THROW(ds.append_base(rows), std::invalid_argument);
    EXPECT_TRUE(ds.has_ground_truth());
    EXPECT_EQ(ds.base(), before);
  }
}

TEST(DatasetSetBase, RejectsPartialAndNonFiniteRowsUnchanged) {
  std::vector<float> tail;
  Dataset ds = two_part_ds(Metric::kCosine, 40, 20, &tail);
  compute_ground_truth(ds, 4);
  const std::vector<float> base = ds.base();
  const std::vector<float> norms(ds.base_norms().begin(),
                                 ds.base_norms().end());
  std::vector<float> partial = tail;
  partial.pop_back();
  std::vector<float> nan_row = tail;
  nan_row[2 * ds.dim() + 5] = std::numeric_limits<float>::quiet_NaN();
  for (const auto& [rows, expected] :
       {std::pair{partial, "whole rows"}, std::pair{nan_row, "row 2 "}}) {
    try {
      ds.set_base(rows);
      ADD_FAILURE() << "set_base accepted bad rows";
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(expected), std::string::npos)
          << e.what();
    }
    EXPECT_EQ(ds.base(), base);
    EXPECT_TRUE(ds.has_ground_truth());
    ASSERT_EQ(ds.base_norms().size(), norms.size());
    for (std::size_t i = 0; i < norms.size(); ++i) {
      EXPECT_EQ(ds.base_norms()[i], norms[i]) << "norm " << i;
    }
  }
  ds.set_base(tail);  // whole finite rows replace the base
  EXPECT_EQ(ds.num_base(), 20u);
  EXPECT_FALSE(ds.has_ground_truth());
  EXPECT_EQ(ds.base_norms().size(), 20u);
}

}  // namespace
}  // namespace algas
