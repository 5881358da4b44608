// Cross-module integration: the full ALGAS system against its baselines on
// the same data, checking the paper's headline *orderings* hold end to end.
#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <string>
#include <vector>

#include "baselines/static_engine.hpp"
#include "common/node_set.hpp"
#include "core/engine.hpp"
#include "search/multi_cta.hpp"
#include "test_util.hpp"

namespace algas {
namespace {

core::AlgasConfig algas_cfg(std::size_t slots = 8) {
  core::AlgasConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 64;
  cfg.search.beam_width = 2;
  cfg.search.offset_beam = 16;
  cfg.slots = slots;
  cfg.n_parallel = 4;
  return cfg;
}

baselines::StaticConfig static_cfg(std::size_t batch = 8) {
  baselines::StaticConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 64;
  cfg.batch_size = batch;
  cfg.n_parallel = 4;
  return cfg;
}

TEST(Integration, AlgasMatchesSynchronousMultiCtaResults) {
  // A query's search depends on the query alone, so the engine's records
  // are multi_cta_search's with the engine's normalized config, CTA count
  // and seed, whatever the host sync mode, host thread count, predicate or
  // slot history: the same device work (steps, rounds, scored points, cost
  // bits) on every record that ran, served or evicted, and the same ids
  // and distance bits on every served one. An open loop of bursts with
  // tight deadlines on every other query keeps four slots busy and evicts
  // some queries.
  const auto bits = [](double d) { return std::bit_cast<std::uint64_t>(d); };
  const auto& world = testing::tiny_world();
  const std::size_t n = world.ds.num_base();
  NodeBitset filter(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (v % 3 == 0) filter.set(static_cast<NodeId>(v));
  }
  StampedSet dead(n);
  for (std::size_t v = 0; v < n; v += 7) dead.insert(static_cast<NodeId>(v));
  std::vector<core::PendingQuery> arrivals;
  for (std::size_t i = 0; i < 64; ++i) {
    core::PendingQuery q;
    q.query_index = i;
    q.arrival_ns = static_cast<double>(i / 16) * 60e3 +
                   static_cast<double>(i % 16) * 300.0;
    if (i % 2 == 1) q.deadline_ns = q.arrival_ns + 40e3;
    arrivals.push_back(q);
  }

  for (const core::HostSync sync :
       {core::HostSync::kPollNaive, core::HostSync::kPollMirrored,
        core::HostSync::kBlocking}) {
    for (const std::size_t hosts : {1, 2, 4}) {
      for (const bool filtered : {false, true}) {
        auto cfg = algas_cfg(/*slots=*/4);
        cfg.host_sync = sync;
        cfg.host_threads = hosts;
        if (filtered) {
          cfg.search.accept = search::AcceptPredicate(&filter, &dead);
        }
        core::AlgasEngine engine(world.ds, world.nsw, cfg);
        const auto rep = engine.run(arrivals);
        const std::string name = std::string(core::host_sync_name(sync)) +
                                 " hosts " + std::to_string(hosts) +
                                 (filtered ? " filter+tombstones" : "");
        std::size_t ran = 0;
        for (const auto& rec : rep.collector.records()) {
          if (rec.slot == metrics::QueryRecord::kNoSlot) continue;  // shed
          ++ran;
          const auto ref = search::multi_cta_search(
              world.ds, world.nsw, engine.config().cost,
              engine.config().search, engine.plan().n_parallel,
              world.ds.query(rec.query_index), rec.query_index,
              engine.config().seed);
          const std::string at = name + " query " +
                                 std::to_string(rec.query_index);
          const search::SearchStats& want = ref.per_cta_total;
          EXPECT_EQ(rec.steps, want.expanded_points) << at;
          EXPECT_EQ(rec.rounds, want.rounds) << at;
          EXPECT_EQ(rec.scored_points, want.scored_points) << at;
          EXPECT_EQ(bits(rec.gpu_cost.select_ns), bits(want.cost.select_ns))
              << at;
          EXPECT_EQ(bits(rec.gpu_cost.gather_ns), bits(want.cost.gather_ns))
              << at;
          EXPECT_EQ(bits(rec.gpu_cost.compute_ns),
                    bits(want.cost.compute_ns))
              << at;
          EXPECT_EQ(bits(rec.gpu_cost.sort_ns), bits(want.cost.sort_ns))
              << at;
          if (!rec.served()) continue;
          ASSERT_EQ(rec.results.size(), ref.topk.size()) << at;
          for (std::size_t i = 0; i < ref.topk.size(); ++i) {
            EXPECT_EQ(rec.results[i].id(), ref.topk[i].id())
                << at << " rank " << i;
            EXPECT_EQ(std::bit_cast<std::uint32_t>(rec.results[i].dist),
                      std::bit_cast<std::uint32_t>(ref.topk[i].dist))
                << at << " rank " << i;
          }
        }
        EXPECT_GT(rep.summary.served, 0u) << name;
        EXPECT_GT(rep.summary.evicted, 0u) << name;
        EXPECT_EQ(ran, rep.summary.served + rep.summary.evicted) << name;
      }
    }
  }
}

TEST(Integration, DynamicBatchingBeatsStaticOnLatency) {
  // Table I / Fig 13: same search work, same parallelism — dynamic slots
  // must deliver lower mean service latency than batch-synchronous.
  const auto& world = testing::tiny_world();
  core::AlgasEngine dynamic(world.ds, world.nsw, algas_cfg(8));
  baselines::StaticBatchEngine static_engine(world.ds, world.nsw,
                                             static_cfg(8));
  const auto rd = dynamic.run_closed_loop(120);
  const auto rs = static_engine.run_closed_loop(120);
  EXPECT_LT(rd.summary.mean_service_us, rs.summary.mean_service_us);
  // And recall is comparable (same graph, same list length).
  EXPECT_GT(rd.recall, rs.recall - 0.05);
}

TEST(Integration, AlgasBeatsGannsOnThroughput) {
  const auto& world = testing::tiny_world();
  core::AlgasEngine dynamic(world.ds, world.nsw, algas_cfg(8));
  baselines::StaticConfig gcfg;
  gcfg.search.topk = 10;
  gcfg.search.candidate_len = 64;
  gcfg.batch_size = 8;
  baselines::StaticBatchEngine ganns(world.ds, world.nsw,
                                     baselines::ganns_config(gcfg));
  const auto rd = dynamic.run_closed_loop(120);
  const auto rg = ganns.run_closed_loop(120);
  EXPECT_GT(rd.summary.throughput_qps, rg.summary.throughput_qps);
}

TEST(Integration, BothGraphTypesWork) {
  // §VI: "To verify ALGAS can support general GPU graph" — NSW and CAGRA.
  const auto& world = testing::tiny_world();
  for (const Graph* g : {&world.nsw, &world.cagra}) {
    core::AlgasEngine engine(world.ds, *g, algas_cfg());
    const auto rep = engine.run_closed_loop(60);
    EXPECT_EQ(rep.summary.queries, 60u);
    EXPECT_GT(rep.recall, 0.88);
  }
}

TEST(Integration, CosineMetricEndToEnd) {
  const auto& world = testing::tiny_world(Metric::kCosine);
  core::AlgasEngine engine(world.ds, world.nsw, algas_cfg());
  const auto rep = engine.run_closed_loop(60);
  EXPECT_GT(rep.recall, 0.85);
}

TEST(Integration, LargerCandidateListRaisesRecall) {
  // The paper's recall knob: candidate list size.
  const auto& world = testing::tiny_world();
  auto lo_cfg = algas_cfg();
  lo_cfg.search.candidate_len = 32;
  auto hi_cfg = algas_cfg();
  hi_cfg.search.candidate_len = 256;
  core::AlgasEngine lo(world.ds, world.nsw, lo_cfg);
  core::AlgasEngine hi(world.ds, world.nsw, hi_cfg);
  const auto rl = lo.run_closed_loop(80);
  const auto rh = hi.run_closed_loop(80);
  EXPECT_GE(rh.recall, rl.recall);
  EXPECT_GT(rh.summary.mean_service_us, rl.summary.mean_service_us);
}

TEST(Integration, StressManyConfigsComplete) {
  // Sweep slots x host threads x beam to shake out lifecycle deadlocks;
  // the engine throws if any query is lost.
  const auto& world = testing::tiny_world();
  for (std::size_t slots : {1, 3, 8}) {
    for (std::size_t hosts : {1, 2}) {
      for (std::size_t beam : {1, 4}) {
        core::AlgasConfig cfg = algas_cfg(slots);
        cfg.host_threads = hosts;
        cfg.search.beam_width = beam;
        core::AlgasEngine engine(world.ds, world.nsw, cfg);
        const auto rep = engine.run_closed_loop(25);
        EXPECT_EQ(rep.summary.queries, 25u)
            << "slots=" << slots << " hosts=" << hosts << " beam=" << beam;
      }
    }
  }
}

}  // namespace
}  // namespace algas
