// Filtered search: the AcceptPredicate API (bitset filters, tombstones,
// conjunction, shard-offset views), selectivity-aware widening, the
// null-predicate byte-identity guarantee, filtered ground truth, and the
// sharded fanout fallback when routing lands on filter-empty shards.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/sharded_engine.hpp"
#include "dataset/ground_truth.hpp"
#include "dataset/io.hpp"
#include "dataset/registry.hpp"
#include "dataset/synthetic.hpp"
#include "graph/builder.hpp"
#include "metrics/recall.hpp"
#include "search/accept.hpp"
#include "search/search_params.hpp"
#include "test_util.hpp"

namespace algas {
namespace {

using search::AcceptPredicate;

// ---------------- search/accept.hpp ----------------

TEST(NodeBitset, SetTestCount) {
  NodeBitset bits(130);  // straddles two-and-a-bit words
  EXPECT_EQ(bits.size(), 130u);
  EXPECT_EQ(bits.count(), 0u);
  bits.set(0);
  bits.set(63);
  bits.set(64);
  bits.set(129);
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(63));
  EXPECT_TRUE(bits.test(64));
  EXPECT_TRUE(bits.test(129));
  EXPECT_FALSE(bits.test(1));
  EXPECT_EQ(bits.count(), 4u);
  bits.reset(63);
  EXPECT_FALSE(bits.test(63));
  EXPECT_EQ(bits.count(), 3u);
}

TEST(NodeBitset, AllTrueConstructionKeepsTailClear) {
  NodeBitset bits(70, true);
  EXPECT_EQ(bits.count(), 70u);  // bits 70..127 must not leak into count
  EXPECT_TRUE(bits.test(0));
  EXPECT_TRUE(bits.test(69));
}

TEST(AcceptPredicate, NullAcceptsEverything) {
  const AcceptPredicate p;
  EXPECT_TRUE(p.null());
  EXPECT_FALSE(p.has_filter());
  EXPECT_FALSE(p.has_tombstones());
  EXPECT_TRUE(p.accepts(0));
  EXPECT_TRUE(p.accepts(123456));
  EXPECT_DOUBLE_EQ(p.selectivity(1000), 1.0);
}

TEST(AcceptPredicate, FilterTombstoneConjunction) {
  NodeBitset wanted(8);
  wanted.set(1);
  wanted.set(2);
  wanted.set(3);
  StampedSet dead(8);
  dead.insert(2);
  const AcceptPredicate p(&wanted, &dead);
  EXPECT_FALSE(p.null());
  EXPECT_FALSE(p.accepts(0));  // rejected by filter
  EXPECT_TRUE(p.accepts(1));
  EXPECT_FALSE(p.accepts(2));  // passes filter, tombstoned
  EXPECT_TRUE(p.accepts(3));
  EXPECT_EQ(p.accepted_in_range(0, 8), 2u);
  EXPECT_DOUBLE_EQ(p.selectivity(8), 0.25);

  // with_tombstones grafts a set onto a filter-only predicate — the
  // MutableIndex::serve conjunction path.
  const AcceptPredicate filter_only(&wanted);
  EXPECT_TRUE(filter_only.accepts(2));
  EXPECT_FALSE(filter_only.with_tombstones(&dead).accepts(2));
}

TEST(AcceptPredicate, OffsetViewShiftsIntoGlobalIds) {
  NodeBitset global(10);
  global.set(7);
  global.set(8);
  const AcceptPredicate p(&global);
  // A shard whose rows start at global id 6: local 1 -> global 7.
  const AcceptPredicate shard = p.with_offset(6);
  EXPECT_FALSE(shard.accepts(0));
  EXPECT_TRUE(shard.accepts(1));
  EXPECT_TRUE(shard.accepts(2));
  EXPECT_FALSE(shard.accepts(3));
  EXPECT_EQ(shard.accepted_in_range(0, 4), 2u);
  // Offsets accumulate.
  EXPECT_TRUE(p.with_offset(3).with_offset(4).accepts(0));
}

TEST(AcceptPredicate, OutOfRangeIdsAreAccepted) {
  // Matches the tombstone idiom: rows published after the structures were
  // sized are live and unfiltered.
  NodeBitset bits(4);
  const AcceptPredicate p(&bits);
  EXPECT_FALSE(p.accepts(3));
  EXPECT_TRUE(p.accepts(4));
  EXPECT_TRUE(p.accepts(100));
}

// ---------------- search/search_params.hpp ----------------

TEST(SearchParams, WideningStaircase) {
  search::SearchConfig cfg;
  cfg.candidate_len = 128;
  // Selectivity above 0.5 never widens: a lightly tombstoned serving view
  // keeps its exact unfiltered work (and byte-identity).
  EXPECT_EQ(search::widen_for_selectivity(cfg, 1.0).candidate_len, 128u);
  EXPECT_EQ(search::widen_for_selectivity(cfg, 0.99).candidate_len, 128u);
  EXPECT_EQ(search::widen_for_selectivity(cfg, 0.51).candidate_len, 128u);
  EXPECT_EQ(search::widen_for_selectivity(cfg, 0.5).candidate_len, 256u);
  EXPECT_EQ(search::widen_for_selectivity(cfg, 0.3).candidate_len, 512u);
  EXPECT_EQ(search::widen_for_selectivity(cfg, 0.1).candidate_len, 1024u);
  // The cap bounds pathological selectivities, including zero.
  EXPECT_EQ(search::widen_for_selectivity(cfg, 0.001).candidate_len, 1024u);
  EXPECT_EQ(search::widen_for_selectivity(cfg, 0.0).candidate_len, 1024u);
  EXPECT_EQ(search::widen_for_selectivity(cfg, 0.001, 16).candidate_len,
            2048u);
  EXPECT_EQ(search::widen_for_selectivity(cfg, 0.001, 1).candidate_len, 128u);
}

TEST(SearchParams, ScaledCandidateLen) {
  EXPECT_EQ(search::scaled_candidate_len(128, 10, 0), 128u);
  EXPECT_EQ(search::scaled_candidate_len(128, 10, 1), 128u);
  EXPECT_EQ(search::scaled_candidate_len(128, 10, 4), 32u);
  EXPECT_EQ(search::scaled_candidate_len(128, 10, 3), 43u);  // ceil
  EXPECT_EQ(search::scaled_candidate_len(16, 10, 4), 10u);   // topk floor
}

// ---------------- engine integration ----------------

core::AlgasConfig small_config() {
  core::AlgasConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 64;
  cfg.search.beam_width = 2;
  cfg.slots = 8;
  cfg.host_threads = 1;
  cfg.n_parallel = 2;
  return cfg;
}

std::vector<std::vector<KV>> results_by_query(
    const core::EngineReport& rep, std::size_t nq) {
  std::vector<std::vector<KV>> out(nq);
  for (const auto& rec : rep.collector.records()) {
    out[rec.query_index] = rec.results;
  }
  return out;
}

TEST(FilteredSearch, AcceptAllBitsetMatchesNullPredicateExactly) {
  const auto& world = algas::testing::tiny_world();
  const std::size_t nq = 24;

  const auto plain = core::AlgasEngine(world.ds, world.nsw, small_config())
                         .run_closed_loop(nq);

  // selectivity == 1.0, so no widening happens and the traversal accepts
  // every candidate: the filtered run must be indistinguishable.
  NodeBitset all(world.ds.num_base(), true);
  core::AlgasConfig cfg = small_config();
  cfg.search.accept = AcceptPredicate(&all);
  const auto filtered =
      core::AlgasEngine(world.ds, world.nsw, cfg).run_closed_loop(nq);

  const auto a = results_by_query(plain, nq);
  const auto b = results_by_query(filtered, nq);
  for (std::size_t q = 0; q < nq; ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << "query " << q;
    for (std::size_t i = 0; i < a[q].size(); ++i) {
      EXPECT_EQ(a[q][i].id(), b[q][i].id()) << "query " << q;
      EXPECT_EQ(a[q][i].dist, b[q][i].dist) << "query " << q;
    }
  }
}

TEST(FilteredSearch, ZeroSelectivityReturnsEmptyAndTerminates) {
  const auto& world = algas::testing::tiny_world();
  NodeBitset none(world.ds.num_base());  // accepts nothing
  core::AlgasConfig cfg = small_config();
  cfg.search.accept = AcceptPredicate(&none);
  const auto rep =
      core::AlgasEngine(world.ds, world.nsw, cfg).run_closed_loop(16);
  ASSERT_EQ(rep.collector.records().size(), 16u);
  for (const auto& rec : rep.collector.records()) {
    EXPECT_TRUE(rec.results.empty());
  }
}

TEST(FilteredSearch, EntryPointExcludedStillRoutesThroughIt) {
  const auto& world = algas::testing::tiny_world();
  const std::size_t nq = 24;
  const NodeId entry = world.nsw.entry_point();

  // Accept everything except the entry point: traversal must still start
  // there and fan out normally, only the accept step drops it.
  NodeBitset bits(world.ds.num_base(), true);
  bits.reset(entry);
  core::AlgasConfig cfg = small_config();
  cfg.search.accept = AcceptPredicate(&bits);
  const auto rep =
      core::AlgasEngine(world.ds, world.nsw, cfg).run_closed_loop(nq);

  const auto gt = compute_filtered_ground_truth(world.ds, 10,
                                                AcceptPredicate(&bits));
  for (const auto& rec : rep.collector.records()) {
    EXPECT_FALSE(rec.results.empty());
    for (const KV& kv : rec.results) EXPECT_NE(kv.id(), entry);
  }
  EXPECT_EQ(rep.summary.served, nq);
  EXPECT_GT(metrics::served_recall(gt, rep.collector, 10), 0.8);
}

TEST(FilteredSearch, SelectiveFilterFindsAcceptedNeighbors) {
  const auto& world = algas::testing::tiny_world();
  const std::size_t nq = 24;
  // ~10% of rows by hashed attribute (category 0 of 16 via the synthetic
  // attribute stream would do, but an arithmetic stripe is self-contained).
  NodeBitset bits(world.ds.num_base());
  for (NodeId v = 0; v < world.ds.num_base(); v += 10) bits.set(v);
  const AcceptPredicate accept(&bits);

  core::AlgasConfig cfg = small_config();
  cfg.search.accept = accept;
  core::AlgasEngine engine(world.ds, world.nsw, cfg);
  // Selectivity 0.1 widens the candidate list 8x (cap) before clamping.
  EXPECT_EQ(engine.config().search.candidate_len, 512u);
  const auto rep = engine.run_closed_loop(nq);

  const auto gt = compute_filtered_ground_truth(world.ds, 10, accept);
  for (const auto& rec : rep.collector.records()) {
    for (const KV& kv : rec.results) EXPECT_TRUE(accept.accepts(kv.id()));
  }
  EXPECT_EQ(rep.summary.served, nq);
  EXPECT_GT(metrics::served_recall(gt, rep.collector, 10), 0.8);
}

void expect_same_results(const std::vector<std::vector<KV>>& a,
                         const std::vector<std::vector<KV>>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t q = 0; q < a.size(); ++q) {
    ASSERT_EQ(a[q].size(), b[q].size()) << "query " << q;
    for (std::size_t i = 0; i < a[q].size(); ++i) {
      EXPECT_EQ(a[q][i].id(), b[q][i].id()) << "query " << q << " rank " << i;
      EXPECT_EQ(a[q][i].dist, b[q][i].dist) << "query " << q << " rank " << i;
    }
  }
}

TEST(FilteredSearch, DeterministicAcrossHostThreadCounts) {
  const auto& world = algas::testing::tiny_world();
  const std::size_t nq = 24;
  NodeBitset bits(world.ds.num_base());
  for (NodeId v = 0; v < world.ds.num_base(); v += 7) bits.set(v);

  auto run = [&](std::size_t hosts) {
    core::AlgasConfig cfg = small_config();
    cfg.search.accept = AcceptPredicate(&bits);
    cfg.host_threads = hosts;
    return results_by_query(
        core::AlgasEngine(world.ds, world.nsw, cfg).run_closed_loop(nq), nq);
  };
  expect_same_results(run(1), run(4));
}

TEST(FilteredSearch, WidenedGateTierDeterministicAcrossHostThreadCounts) {
  // The filtered gate's 0.1% tier (bench_filtered at scale 0.05): SIFT-like
  // 4,000 rows and 40 queries, the 4 rows with the smallest timestamps
  // accepted, so the list widens to 1,024 over 4 CTAs. The slot's CTAs
  // share one visited set, so the order they start a query in decides which
  // CTA claims a node. That order must not depend on how many host workers
  // dispatch the queries.
  Dataset ds = load_bench_dataset_sized("sift", 4000, 40, 10, false);
  attach_synthetic_attributes(ds);
  BuildConfig build;
  build.degree = 32;
  build.ef_construction = 64;
  const Graph g = build_graph(GraphKind::kNsw, ds, build).graph;
  std::vector<std::pair<std::uint32_t, NodeId>> order;
  for (std::size_t i = 0; i < ds.num_base(); ++i) {
    order.emplace_back(ds.timestamps()[i], static_cast<NodeId>(i));
  }
  std::sort(order.begin(), order.end());
  NodeBitset bits(ds.num_base());
  for (std::size_t i = 0; i < 4; ++i) bits.set(order[i].second);

  auto run = [&](std::size_t hosts) {
    core::AlgasConfig cfg;
    cfg.search.topk = 10;
    cfg.search.candidate_len = 128;
    cfg.search.beam_width = 4;
    cfg.search.offset_beam = 24;
    cfg.search.accept = AcceptPredicate(&bits);
    cfg.slots = 16;
    cfg.n_parallel = 4;
    cfg.host_threads = hosts;
    cfg.host_sync = core::HostSync::kPollMirrored;
    core::AlgasEngine engine(ds, g, cfg);
    EXPECT_EQ(engine.config().search.candidate_len, 1024u);
    return results_by_query(engine.run_closed_loop(ds.num_queries()),
                            ds.num_queries());
  };
  expect_same_results(run(1), run(4));
}

// ---------------- sharded fanout fallback ----------------

TEST(FilteredSharded, RoutesFallBackWhenSelectedShardsAreFilterEmpty) {
  const auto& world = algas::testing::tiny_world();
  core::ShardedConfig cfg;
  cfg.base = small_config();
  cfg.shards = 3;
  cfg.fanout = 1;  // selective routing — the fallback's precondition
  cfg.build.degree = 16;
  cfg.build.ef_construction = 48;

  // Accept rows only inside shard 2's range; affinity routing knows
  // nothing about that and will often pick shards 0/1.
  core::ShardedEngine probe(world.ds, cfg);  // to read the partition
  const auto r2 = probe.partition().range(2);
  NodeBitset bits(world.ds.num_base());
  for (NodeId v = r2.begin; v < r2.end; v += 3) bits.set(v);
  const AcceptPredicate accept(&bits);

  cfg.base.search.accept = accept;
  core::ShardedEngine engine(world.ds, cfg);
  bool fell_back = false;
  for (std::size_t q = 0; q < world.ds.num_queries(); ++q) {
    const auto route = engine.route(q);
    // Either the route covers shard 2, or it fell back to full fanout —
    // a route that would return zero accepted rows is never emitted.
    std::size_t accepted = 0;
    for (const std::size_t s : route) {
      const auto r = engine.partition().range(s);
      accepted += accept.accepted_in_range(r.begin, r.end);
    }
    EXPECT_GT(accepted, 0u) << "query " << q;
    if (route.size() == cfg.shards) fell_back = true;
  }
  EXPECT_TRUE(fell_back);  // the guard actually fired for this layout

  const auto rep = engine.run_closed_loop(16);
  for (const auto& rec : rep.merged.collector.records()) {
    ASSERT_FALSE(rec.results.empty());
    for (const KV& kv : rec.results) {
      EXPECT_TRUE(accept.accepts(kv.id()));
    }
  }
}

TEST(FilteredSharded, RejectsTombstonePredicates) {
  const auto& world = algas::testing::tiny_world();
  StampedSet dead(world.ds.num_base());
  core::ShardedConfig cfg;
  cfg.base = small_config();
  cfg.shards = 2;
  cfg.build.degree = 16;
  cfg.build.ef_construction = 48;
  cfg.base.search.accept = AcceptPredicate::deleted_only(&dead);
  EXPECT_THROW(core::ShardedEngine(world.ds, cfg), std::invalid_argument);
}

// ---------------- attributes: dataset + io ----------------

TEST(Attributes, SyntheticGenerationIsStatelessPerRow) {
  SyntheticSpec spec;
  spec.num_base = 300;
  spec.num_queries = 4;
  spec.dim = 8;
  const Dataset ds = make_synthetic(spec);
  ASSERT_TRUE(ds.has_attributes());
  ASSERT_EQ(ds.categories().size(), 300u);
  ASSERT_EQ(ds.timestamps().size(), 300u);

  // Same rows under a smaller generation: attributes are a pure function
  // of (seed, row id), not of the dataset size.
  SyntheticSpec small = spec;
  small.num_base = 100;
  const Dataset ds2 = make_synthetic(small);
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(ds.categories()[i], ds2.categories()[i]);
    EXPECT_EQ(ds.timestamps()[i], ds2.timestamps()[i]);
  }
  // All categories land in range.
  AttributeSpec aspec;
  for (const std::uint32_t c : ds.categories()) {
    EXPECT_LT(c, aspec.categories);
  }
}

TEST(Attributes, AppendDropsThem) {
  SyntheticSpec spec;
  spec.num_base = 50;
  spec.num_queries = 2;
  spec.dim = 4;
  Dataset ds = make_synthetic(spec);
  ASSERT_TRUE(ds.has_attributes());
  const std::vector<float> row(4, 0.5f);
  ds.append_base(row);
  EXPECT_FALSE(ds.has_attributes());
}

TEST(Attributes, DatasetFileRoundTrip) {
  SyntheticSpec spec;
  spec.num_base = 60;
  spec.num_queries = 3;
  spec.dim = 4;
  Dataset ds = make_synthetic(spec);
  const std::string path = ::testing::TempDir() + "attrs_roundtrip.abin";
  save_dataset(ds, path);
  const Dataset loaded = load_dataset(path);
  ASSERT_TRUE(loaded.has_attributes());
  EXPECT_EQ(loaded.categories(), ds.categories());
  EXPECT_EQ(loaded.timestamps(), ds.timestamps());

  // Attribute-free datasets write the pre-trailer format and load clean.
  ds.clear_attributes();
  save_dataset(ds, path);
  const Dataset bare = load_dataset(path);
  EXPECT_FALSE(bare.has_attributes());
  EXPECT_EQ(bare.base(), ds.base());
  std::remove(path.c_str());
}

// ---------------- filtered ground truth + recall ----------------

TEST(FilteredGroundTruth, RestrictsAndPads) {
  const auto& world = algas::testing::tiny_world();
  NodeBitset bits(world.ds.num_base());
  bits.set(5);
  bits.set(17);
  bits.set(99);
  const AcceptPredicate accept(&bits);
  const auto gt = compute_filtered_ground_truth(world.ds, 10, accept);
  ASSERT_EQ(gt.size(), world.ds.num_queries() * 10);
  for (std::size_t q = 0; q < world.ds.num_queries(); ++q) {
    // Exactly 3 accepted rows exist: 3 real entries, 7 pads, ascending.
    std::size_t real = 0;
    for (std::size_t i = 0; i < 10; ++i) {
      const NodeId id = gt[q * 10 + i];
      if (id == kInvalidNode) continue;
      ++real;
      EXPECT_TRUE(accept.accepts(id));
    }
    EXPECT_EQ(real, 3u);
  }
}

TEST(RecallAgainst, PaddedTruthUsesAcceptedDenominator) {
  const std::vector<NodeId> truth{4, 9, kInvalidNode, kInvalidNode};
  const std::vector<KV> exact{KV::make(0.1f, 4), KV::make(0.2f, 9)};
  EXPECT_DOUBLE_EQ(metrics::recall_against(truth, exact, 4), 1.0);
  const std::vector<KV> half{KV::make(0.1f, 4), KV::make(0.2f, 8)};
  EXPECT_DOUBLE_EQ(metrics::recall_against(truth, half, 4), 0.5);
  const std::vector<NodeId> empty_truth(4, kInvalidNode);
  EXPECT_DOUBLE_EQ(metrics::recall_against(empty_truth, exact, 4), 1.0);
}

}  // namespace
}  // namespace algas
