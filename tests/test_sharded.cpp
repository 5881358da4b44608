// Sharded scatter-gather engine: partition arithmetic, the K=1
// byte-identity guarantee (results, traces, SimCheck activity all match
// the unsharded engine), cross-host-thread-count determinism at K>1, and
// fanout routing well-formedness.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/sharded_engine.hpp"
#include "simgpu/checker.hpp"
#include "simgpu/trace.hpp"
#include "test_util.hpp"

namespace algas::core {
namespace {

// ---------------- dataset/partitioner.hpp ----------------

TEST(ShardPartition, RangesTileTheBaseSet) {
  for (std::size_t n : {7u, 100u, 101u, 2048u}) {
    for (std::size_t k : {1u, 2u, 3u, 4u, 7u}) {
      ShardPartition part(n, k);
      std::size_t covered = 0;
      NodeId expect_begin = 0;
      for (std::size_t s = 0; s < k; ++s) {
        const ShardRange r = part.range(s);
        EXPECT_EQ(r.begin, expect_begin) << n << "/" << k << "/" << s;
        EXPECT_GT(r.end, r.begin);  // no empty shards
        covered += part.size(s);
        expect_begin = r.end;
        // Balanced to within one row.
        EXPECT_LE(part.size(s), n / k + 1);
        EXPECT_GE(part.size(s), n / k);
      }
      EXPECT_EQ(covered, n);
    }
  }
}

TEST(ShardPartition, IdMappingRoundTrips) {
  ShardPartition part(101, 4);
  for (NodeId g = 0; g < 101; ++g) {
    const std::size_t s = part.shard_of(g);
    const NodeId local = part.to_local(g);
    EXPECT_GE(g, part.range(s).begin);
    EXPECT_LT(g, part.range(s).end);
    EXPECT_EQ(part.to_global(s, local), g);
  }
}

TEST(ShardPartition, RejectsImpossibleShapes) {
  EXPECT_THROW(ShardPartition(10, 0), std::invalid_argument);
  EXPECT_THROW(ShardPartition(3, 4), std::invalid_argument);
  EXPECT_NO_THROW(ShardPartition(4, 4));
}

TEST(ShardDataset, SlicesRowsAndPreservesEncoding) {
  const auto& world = algas::testing::tiny_world();
  ShardPartition part(world.ds.num_base(), 3);
  for (std::size_t s = 0; s < 3; ++s) {
    const Dataset shard = make_shard_dataset(world.ds, part, s);
    const ShardRange r = part.range(s);
    ASSERT_EQ(shard.num_base(), part.size(s));
    EXPECT_EQ(shard.num_queries(), world.ds.num_queries());
    EXPECT_EQ(shard.dim(), world.ds.dim());
    EXPECT_EQ(shard.metric(), world.ds.metric());
    EXPECT_EQ(shard.storage(), world.ds.storage());
    EXPECT_FALSE(shard.has_ground_truth());
    // Row `local` is bit-identical to global row begin+local.
    for (NodeId local = 0; local < 3 && local < shard.num_base(); ++local) {
      const auto got = shard.base_vector(local);
      const auto want = world.ds.base_vector(r.begin + local);
      ASSERT_EQ(got.size(), want.size());
      for (std::size_t d = 0; d < got.size(); ++d) {
        EXPECT_EQ(got[d], want[d]);
      }
    }
  }
}

// ---------------- core/sharded_engine.hpp ----------------

AlgasConfig tiny_base_config() {
  AlgasConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 64;
  cfg.search.beam_width = 2;
  cfg.search.offset_beam = 16;
  cfg.slots = 4;
  cfg.host_threads = 1;
  return cfg;
}

BuildConfig tiny_build_config() {
  BuildConfig cfg;
  cfg.degree = 16;
  cfg.ef_construction = 48;
  return cfg;
}

ShardedConfig tiny_sharded_config(std::size_t shards) {
  ShardedConfig cfg;
  cfg.base = tiny_base_config();
  cfg.build = tiny_build_config();
  cfg.shards = shards;
  return cfg;
}

/// Canonical serialization of the per-query merged results, sorted by
/// query index: the byte string the identity gates compare. exactfp —
/// distances render via hexfloat so equality means bit equality.
std::string results_tsv(const metrics::Collector& c) {
  std::vector<const metrics::QueryRecord*> recs;
  recs.reserve(c.size());
  for (const auto& r : c.records()) recs.push_back(&r);
  std::sort(recs.begin(), recs.end(),
            [](const metrics::QueryRecord* a, const metrics::QueryRecord* b) {
              return a->query_index < b->query_index;
            });
  std::ostringstream os;
  os << std::hexfloat;
  for (const auto* r : recs) {
    os << r->query_index;
    for (const KV& kv : r->results) os << '\t' << kv.id() << ':' << kv.dist;
    os << '\n';
  }
  return os.str();
}

TEST(ShardedEngine, SingleShardByteIdenticalToUnsharded) {
  const auto& world = algas::testing::tiny_world();

  // The unsharded comparator uses the same build config the sharded
  // constructor will apply to its (full-range) single shard.
  const Graph g =
      build_graph(GraphKind::kNsw, world.ds, tiny_build_config()).graph;

  sim::Tracer trace_plain, trace_sharded;
  sim::SimCheck check_plain, check_sharded;

  auto plain_cfg = tiny_base_config();
  plain_cfg.tracer = &trace_plain;
  plain_cfg.checker = &check_plain;
  AlgasEngine plain(world.ds, g, plain_cfg);
  const EngineReport rp = plain.run_closed_loop(80);

  ShardedConfig scfg = tiny_sharded_config(1);
  scfg.base.tracer = &trace_sharded;
  scfg.base.checker = &check_sharded;
  ShardedEngine sharded(world.ds, scfg);
  const ShardedReport rs = sharded.run_closed_loop(80);

  // Results: identical bytes.
  EXPECT_EQ(results_tsv(rs.merged.collector), results_tsv(rp.collector));

  // Timing and counters: identical to the last bit.
  EXPECT_EQ(rs.merged.summary.span_ns, rp.summary.span_ns);
  EXPECT_EQ(rs.merged.summary.mean_latency_us, rp.summary.mean_latency_us);
  EXPECT_EQ(rs.merged.summary.p99_latency_us, rp.summary.p99_latency_us);
  EXPECT_EQ(rs.merged.recall, rp.recall);
  EXPECT_EQ(rs.merged.sim_events, rp.sim_events);
  EXPECT_EQ(rs.merged.elided_polls, rp.elided_polls);
  EXPECT_EQ(rs.merged.pcie_transactions, rp.pcie_transactions);
  EXPECT_EQ(rs.merged.pcie_bytes, rp.pcie_bytes);
  EXPECT_EQ(rs.merged.host_polls, rp.host_polls);

  // SimCheck observed the exact same run (same number of invariant
  // evaluations; both checkers clean).
  EXPECT_EQ(rs.merged.simcheck_checks, rp.simcheck_checks);
  EXPECT_EQ(check_plain.violations(), 0u);
  EXPECT_EQ(check_sharded.violations(), 0u);

  // Traces: the serialized timelines are byte-identical.
  std::ostringstream jp, js;
  trace_plain.write_json(jp);
  trace_sharded.write_json(js);
  EXPECT_EQ(js.str(), jp.str());

  // No bus, no merge stage on the degenerate path.
  EXPECT_EQ(rs.bus_transactions, 0u);
  EXPECT_EQ(rs.merges, 0u);
  EXPECT_DOUBLE_EQ(rs.mean_fanout, 1.0);
}

TEST(ShardedEngine, ResultsIdenticalAcrossHostThreadCounts) {
  const auto& world = algas::testing::tiny_world();
  const std::size_t kQueries = 60;

  std::string first_tsv;
  double first_recall = 0.0;
  for (const std::size_t host_threads : {1u, 2u, 4u}) {
    ShardedConfig cfg = tiny_sharded_config(4);
    cfg.base.host_threads = host_threads;
    ShardedEngine engine(world.ds, cfg);
    const ShardedReport rep = engine.run_closed_loop(kQueries);
    EXPECT_EQ(rep.merged.summary.queries, kQueries);
    EXPECT_EQ(rep.merges, kQueries);
    const std::string tsv = results_tsv(rep.merged.collector);
    if (first_tsv.empty()) {
      first_tsv = tsv;
      first_recall = rep.merged.recall;
      EXPECT_GT(first_recall, 0.85);
    } else {
      // The merged (distance, global id) lists are byte-identical no
      // matter how many host threads each shard models.
      EXPECT_EQ(tsv, first_tsv) << "host_threads=" << host_threads;
      EXPECT_EQ(rep.merged.recall, first_recall);
    }
  }
}

TEST(ShardedEngine, DeterministicAcrossRepeatedRuns) {
  const auto& world = algas::testing::tiny_world();
  ShardedEngine a(world.ds, tiny_sharded_config(3));
  ShardedEngine b(world.ds, tiny_sharded_config(3));
  const ShardedReport ra = a.run_closed_loop(50);
  const ShardedReport rb = b.run_closed_loop(50);
  EXPECT_EQ(results_tsv(ra.merged.collector), results_tsv(rb.merged.collector));
  EXPECT_EQ(ra.merged.sim_events, rb.merged.sim_events);
  EXPECT_EQ(ra.merged.elided_polls, rb.merged.elided_polls);
  EXPECT_EQ(ra.merged.summary.span_ns, rb.merged.summary.span_ns);
  EXPECT_EQ(ra.bus_transactions, rb.bus_transactions);
  EXPECT_EQ(ra.bus_bytes, rb.bus_bytes);
}

TEST(ShardedEngine, FullFanoutMergesEveryShardAndKeepsRecall) {
  const auto& world = algas::testing::tiny_world();
  ShardedEngine engine(world.ds, tiny_sharded_config(4));
  const ShardedReport rep = engine.run_closed_loop(80);

  EXPECT_EQ(rep.merged.summary.queries, 80u);
  EXPECT_DOUBLE_EQ(rep.mean_fanout, 4.0);
  EXPECT_GT(rep.merged.recall, 0.85);
  // Every query's merged record reports the number of runs it merged.
  std::set<std::size_t> seen;
  for (const auto& r : rep.merged.collector.records()) {
    EXPECT_TRUE(seen.insert(r.query_index).second);
    EXPECT_EQ(r.slot, 4u);
    EXPECT_LE(r.results.size(), 10u);
    // Merged results are sorted ascending (distance, id) and unique ids.
    for (std::size_t i = 1; i < r.results.size(); ++i) {
      EXPECT_TRUE(r.results[i - 1] < r.results[i]);
    }
  }
  // Shard-side diagnostics: K runs per query, global ids in shard ranges.
  EXPECT_EQ(rep.shard_records.size(), 80u * 4u);
  // The shared host bus saw every shard's data-plane traffic.
  EXPECT_GT(rep.bus_transactions, 0u);
  EXPECT_GT(rep.bus_bytes, 0u);
  EXPECT_GT(rep.merge_busy_ns, 0.0);
  // Per-shard engine reports came back, with their collectors drained
  // into the gather stage.
  ASSERT_EQ(rep.shards.size(), 4u);
  std::size_t ctas = 0;
  double cta_busy = 0.0, host_busy = 0.0;
  std::uint64_t events = 0, stale = 0;
  for (const auto& shard_rep : rep.shards) {
    EXPECT_EQ(shard_rep.collector.size(), 0u);
    EXPECT_GT(shard_rep.sim_events, 0u);
    ctas += shard_rep.cta_count;
    cta_busy += shard_rep.cta_busy_ns;
    host_busy += shard_rep.host_busy_ns;
    events += shard_rep.sim_events;
    stale += shard_rep.sim_stale_events;
  }
  // Every merged counter is the per-shard sum, except that the gather's
  // own host simulation adds its events (one or more per merge) and the
  // merge thread its busy time.
  using C = EngineCounters;
  for (const auto field :
       {&C::pcie_transactions, &C::pcie_state_transactions,
        &C::pcie_state_poll_transactions, &C::pcie_state_write_transactions,
        &C::pcie_bytes, &C::host_polls, &C::interrupts, &C::host_worker_steps,
        &C::elided_polls, &C::simcheck_checks}) {
    std::uint64_t sum = 0;
    for (const auto& shard_rep : rep.shards) sum += shard_rep.*field;
    EXPECT_EQ(rep.merged.*field, sum);
  }
  EXPECT_EQ(rep.merged.cta_count, ctas);
  EXPECT_DOUBLE_EQ(rep.merged.cta_busy_ns, cta_busy);
  EXPECT_DOUBLE_EQ(rep.merged.host_busy_ns, host_busy + rep.merge_busy_ns);
  EXPECT_GE(rep.merged.sim_events, events + rep.merges);
  EXPECT_GE(rep.merged.sim_stale_events, stale);
  // Idle CTA polls happen on the devices only.
  EXPECT_GT(rep.merged.elided_polls, 0u);
}

TEST(ShardedEngine, SelectiveFanoutRoutesAndAnswersEveryQuery) {
  const auto& world = algas::testing::tiny_world();
  ShardedConfig cfg = tiny_sharded_config(4);
  cfg.fanout = 2;
  cfg.router_centroids = 4;
  ShardedEngine engine(world.ds, cfg);

  // Routes are well-formed: exactly fanout distinct shards, ascending,
  // and deterministic across calls.
  for (std::size_t q = 0; q < 20; ++q) {
    const auto route = engine.route(q);
    ASSERT_EQ(route.size(), 2u);
    EXPECT_LT(route[0], route[1]);
    EXPECT_LT(route[1], 4u);
    EXPECT_EQ(engine.route(q), route);
  }

  const ShardedReport rep = engine.run_closed_loop(60);
  EXPECT_EQ(rep.merged.summary.queries, 60u);
  EXPECT_DOUBLE_EQ(rep.mean_fanout, 2.0);
  EXPECT_EQ(rep.shard_records.size(), 60u * 2u);
  for (const auto& r : rep.merged.collector.records()) {
    EXPECT_EQ(r.slot, 2u);
  }
  // Probing half the shards costs some recall but must stay in the same
  // league as exhaustive scatter (the router exists to make this cheap
  // miss rare).
  EXPECT_GT(rep.merged.recall, 0.5);
}

TEST(ShardedEngine, SelectiveFanoutReducesWorkPerQuery) {
  const auto& world = algas::testing::tiny_world();
  ShardedConfig full_cfg = tiny_sharded_config(4);
  ShardedConfig sel_cfg = full_cfg;
  sel_cfg.fanout = 2;
  sel_cfg.router_centroids = 4;
  ShardedEngine full(world.ds, full_cfg);
  ShardedEngine sel(world.ds, sel_cfg);
  const ShardedReport rf = full.run_closed_loop(40);
  const ShardedReport rs = sel.run_closed_loop(40);
  double full_scored = 0.0, sel_scored = 0.0;
  for (const auto& r : rf.merged.collector.records()) {
    full_scored += static_cast<double>(r.scored_points);
  }
  for (const auto& r : rs.merged.collector.records()) {
    sel_scored += static_cast<double>(r.scored_points);
  }
  EXPECT_LT(sel_scored, full_scored);
}

TEST(ShardedEngine, RejectsMalformedRuns) {
  const auto& world = algas::testing::tiny_world();
  ShardedEngine engine(world.ds, tiny_sharded_config(2));
  // Duplicate in-flight query indices would collide in the gather stage.
  EXPECT_THROW(engine.run({{3, 0.0}, {3, 0.0}}), std::invalid_argument);
  // Out-of-range query index.
  EXPECT_THROW(engine.run({{world.ds.num_queries(), 0.0}}),
               std::invalid_argument);
}

TEST(ShardedEngine, RejectsTombstonedConfig) {
  const auto& world = algas::testing::tiny_world();
  StampedSet tombs(world.ds.num_base());
  ShardedConfig cfg = tiny_sharded_config(2);
  cfg.base.search.accept = search::AcceptPredicate::deleted_only(&tombs);
  EXPECT_THROW(ShardedEngine(world.ds, cfg), std::invalid_argument);
}

}  // namespace
}  // namespace algas::core
