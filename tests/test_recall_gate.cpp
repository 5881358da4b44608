// Recall-gate semantics on a tiny deterministic dataset: pinned recall@10
// per storage codec under the Fig 10/11 engine configuration, plus the
// ordering the CI gate (scripts/check_bench.py over
// bench/recall_baseline.json) relies on — quantization only ever loses
// recall, and the loss is bounded and reproducible.
//
// The pins are exact to double precision (EXPECT_DOUBLE_EQ): the sim is
// deterministic, so the measured recall is a pure function of the dataset
// seed, the graph build, and the codec. A pin moving means the scoring or
// search behaviour changed — the in-tree analogue of the CI gate failing.
#include <gtest/gtest.h>

#include <map>

#include "core/engine.hpp"
#include "test_util.hpp"

namespace algas {
namespace {

/// The Fig 10/11 configuration the CI gate (tools/recall_gate) runs.
core::AlgasConfig gate_config() {
  core::AlgasConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 128;
  cfg.search.beam_width = 4;
  cfg.search.offset_beam = 24;
  cfg.slots = 16;
  cfg.host_threads = 1;
  cfg.n_parallel = 4;
  cfg.host_sync = core::HostSync::kPollMirrored;
  return cfg;
}

double codec_recall(StorageCodec codec, Metric metric = Metric::kL2) {
  const auto& world = algas::testing::tiny_world(metric);
  Dataset ds = world.ds;  // copy: the shared fixture must stay f32
  ds.set_storage(codec);
  core::AlgasEngine engine(ds, world.cagra, gate_config());
  return engine.run_closed_loop(80).recall;
}

TEST(RecallGate, PinnedRecallPerCodec) {
  const double f32 = codec_recall(StorageCodec::kF32);
  const double f16 = codec_recall(StorageCodec::kF16);
  const double i8 = codec_recall(StorageCodec::kInt8);

  // Exact pins — see the header comment before "fixing" one. This tiny
  // 16-dim dataset (tight clusters, spread 0.16) is deliberately HARDER on
  // quantization than the CI gate's 128-dim sift config: int8's per-row
  // scale error is a larger fraction of the inter-point distances, so the
  // int8 drop here (0.01875) sits above the CI epsilon (0.01) by design —
  // a visible quantization cost is what makes the pin meaningful.
  EXPECT_DOUBLE_EQ(f32, 1.0);
  EXPECT_DOUBLE_EQ(f16, 1.0);
  EXPECT_DOUBLE_EQ(i8, 0.98125);

  // Ordering the gate depends on: quantization only loses recall, a
  // narrower codec loses at least as much, and the loss stays bounded.
  EXPECT_LE(f16, f32);
  EXPECT_LE(i8, f16);
  EXPECT_LE(f32 - i8, 0.02);
}

TEST(RecallGate, RunsAreReproduciblePerCodec) {
  for (StorageCodec codec : {StorageCodec::kF32, StorageCodec::kF16,
                             StorageCodec::kInt8}) {
    EXPECT_EQ(codec_recall(codec), codec_recall(codec))
        << storage_codec_name(codec);
  }
}

TEST(RecallGate, CosineCodecsPinnedAndOrdered) {
  const double f32 = codec_recall(StorageCodec::kF32, Metric::kCosine);
  const double f16 = codec_recall(StorageCodec::kF16, Metric::kCosine);
  const double i8 = codec_recall(StorageCodec::kInt8, Metric::kCosine);
  EXPECT_DOUBLE_EQ(f32, 1.0);
  EXPECT_DOUBLE_EQ(f16, 0.99875);
  EXPECT_DOUBLE_EQ(i8, 0.985);
  EXPECT_LE(f16, f32);
  EXPECT_LE(i8, f16);
  EXPECT_LE(f32 - i8, 0.02);
}

}  // namespace
}  // namespace algas
