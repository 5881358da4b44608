#include <gtest/gtest.h>

#include <map>
#include <set>

#include "baselines/ivf.hpp"
#include "baselines/static_engine.hpp"
#include "metrics/recall.hpp"
#include "test_util.hpp"

namespace algas::baselines {
namespace {

// ---------------- static_engine.hpp ----------------

StaticConfig tiny_static_config() {
  StaticConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 64;
  cfg.batch_size = 8;
  cfg.n_parallel = 4;
  return cfg;
}

TEST(StaticEngine, GoodRecallAndBatchBarrier) {
  const auto& world = algas::testing::tiny_world();
  StaticBatchEngine engine(world.ds, world.nsw, tiny_static_config());
  const auto rep = engine.run_closed_loop(64);
  EXPECT_EQ(rep.summary.queries, 64u);
  EXPECT_GT(rep.recall, 0.9);

  // Batch barrier: queries of the same batch share one done time.
  std::map<double, std::size_t> done_groups;
  for (const auto& r : rep.collector.records()) {
    ++done_groups[r.done_ns];
  }
  EXPECT_EQ(done_groups.size(), 8u);  // 64 / batch 8
  for (const auto& [t, n] : done_groups) EXPECT_EQ(n, 8u);
}

TEST(StaticEngine, ReportsBatchBubbleWaste) {
  const auto& world = algas::testing::tiny_world();
  StaticBatchEngine engine(world.ds, world.nsw, tiny_static_config());
  const auto rep = engine.run_closed_loop(64);
  // §III-A: bubble waste is substantial (paper reports 22.9%-33.7%).
  EXPECT_GT(rep.summary.bubble_waste, 0.05);
  EXPECT_LT(rep.summary.bubble_waste, 1.5);
}

TEST(StaticEngine, AutoParallelismPicked) {
  const auto& world = algas::testing::tiny_world();
  auto cfg = tiny_static_config();
  cfg.n_parallel = 0;
  StaticBatchEngine engine(world.ds, world.nsw, cfg);
  EXPECT_GE(engine.n_parallel(), 1u);
  EXPECT_LE(engine.n_parallel(), 16u);
}

TEST(StaticEngine, SingleCtaNeedsNoMerge) {
  const auto& world = algas::testing::tiny_world();
  auto cfg = tiny_static_config();
  cfg.n_parallel = 1;
  cfg.merge = MergeMode::kNone;
  StaticBatchEngine engine(world.ds, world.nsw, cfg);
  const auto rep = engine.run_closed_loop(16);
  EXPECT_GT(rep.recall, 0.85);
}

TEST(StaticEngine, MultiCtaWithoutMergeRejected) {
  const auto& world = algas::testing::tiny_world();
  auto cfg = tiny_static_config();
  cfg.n_parallel = 4;
  cfg.merge = MergeMode::kNone;
  EXPECT_THROW(StaticBatchEngine(world.ds, world.nsw, cfg),
               std::invalid_argument);
}

TEST(StaticEngine, HostMergeMatchesGpuMergeResults) {
  const auto& world = algas::testing::tiny_world();
  auto gpu_cfg = tiny_static_config();
  auto host_cfg = tiny_static_config();
  host_cfg.merge = MergeMode::kHost;
  StaticBatchEngine gpu(world.ds, world.nsw, gpu_cfg);
  StaticBatchEngine host(world.ds, world.nsw, host_cfg);
  const auto rg = gpu.run_closed_loop(32);
  const auto rh = host.run_closed_loop(32);
  EXPECT_DOUBLE_EQ(rg.recall, rh.recall);  // merge mode is timing-only
}

TEST(StaticEngine, LargerBatchRaisesPerQueryLatency) {
  // Fig 15's shape: with a batch barrier, bigger batches mean longer waits.
  const auto& world = algas::testing::tiny_world();
  auto small_cfg = tiny_static_config();
  small_cfg.batch_size = 4;
  auto large_cfg = tiny_static_config();
  large_cfg.batch_size = 32;
  StaticBatchEngine small(world.ds, world.nsw, small_cfg);
  StaticBatchEngine large(world.ds, world.nsw, large_cfg);
  const auto rs = small.run_closed_loop(128);
  const auto rl = large.run_closed_loop(128);
  EXPECT_LT(rs.summary.mean_service_us, rl.summary.mean_service_us);
}

// ---------------- ganns_config ----------------

TEST(Ganns, SingleCtaGreedyCompletes) {
  const auto& world = algas::testing::tiny_world();
  StaticConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 64;
  cfg.batch_size = 8;
  StaticBatchEngine engine(world.ds, world.nsw, ganns_config(cfg));
  const auto rep = engine.run_closed_loop(32);
  EXPECT_EQ(rep.summary.queries, 32u);
  EXPECT_GT(rep.recall, 0.85);
  EXPECT_EQ(rep.plan.n_parallel, 1u);
}

// ---------------- ivf.hpp ----------------

TEST(IvfIndex, PartitionsAllPoints) {
  const auto& world = algas::testing::tiny_world();
  IvfBuildConfig cfg;
  cfg.nlist = 32;
  const auto index = IvfIndex::build(world.ds, cfg);
  EXPECT_EQ(index.nlist(), 32u);
  std::size_t total = 0;
  for (std::size_t i = 0; i < index.nlist(); ++i) {
    total += index.list_size(i);
  }
  EXPECT_EQ(total, world.ds.num_base());
}

TEST(IvfIndex, FullProbeIsExact) {
  const auto& world = algas::testing::tiny_world();
  IvfBuildConfig cfg;
  cfg.nlist = 16;
  const auto index = IvfIndex::build(world.ds, cfg);
  // nprobe = nlist scans everything: recall must be 1.
  const auto out = index.search(world.ds, world.ds.query(0), 16, 10);
  EXPECT_EQ(out.scanned, world.ds.num_base());
  const auto truth = world.ds.ground_truth(0);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(out.topk[i].id(), truth[i]);
  }
}

TEST(IvfIndex, RecallGrowsWithNprobe) {
  const auto& world = algas::testing::tiny_world();
  IvfBuildConfig bcfg;
  bcfg.nlist = 32;
  const auto index = IvfIndex::build(world.ds, bcfg);
  double recall1 = 0.0, recall8 = 0.0;
  const std::size_t nq = 40;
  for (std::size_t q = 0; q < nq; ++q) {
    const auto o1 = index.search(world.ds, world.ds.query(q), 1, 10);
    const auto o8 = index.search(world.ds, world.ds.query(q), 8, 10);
    recall1 += metrics::recall_at_k(world.ds, q, o1.topk, 10);
    recall8 += metrics::recall_at_k(world.ds, q, o8.topk, 10);
  }
  EXPECT_GT(recall8, recall1);
  EXPECT_GT(recall8 / nq, 0.8);
}

TEST(IvfEngine, EndToEnd) {
  const auto& world = algas::testing::tiny_world();
  IvfConfig cfg;
  cfg.topk = 10;
  cfg.nprobe = 8;
  cfg.batch_size = 8;
  cfg.build.nlist = 32;
  IvfEngine engine(world.ds, cfg);
  const auto rep = engine.run_closed_loop(32);
  EXPECT_EQ(rep.summary.queries, 32u);
  EXPECT_GT(rep.recall, 0.7);
  EXPECT_GT(rep.summary.mean_service_us, 0.0);
}

}  // namespace
}  // namespace algas::baselines
