// MutableIndex: streaming insert/delete/compact under live queries.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
#include <stdexcept>
#include <thread>

#include "core/mutable_index.hpp"
#include "dataset/ground_truth.hpp"
#include "dataset/synthetic.hpp"
#include "graph/builder.hpp"
#include "test_util.hpp"

namespace algas {
namespace {

using core::MutableIndex;
using core::MutationChecker;

Dataset small_ds(Metric metric = Metric::kL2, std::size_t n = 400) {
  SyntheticSpec spec;
  spec.name = metric == Metric::kL2 ? "mut-l2" : "mut-cos";
  spec.num_base = n;
  spec.num_queries = 30;
  spec.dim = 8;
  spec.metric = metric;
  spec.clusters = 8;
  spec.spread = 0.2;
  spec.seed = 99;
  return make_synthetic(spec);
}

BuildConfig small_cfg() {
  BuildConfig cfg;
  cfg.degree = 8;
  cfg.ef_construction = 24;
  cfg.insert_batch = 128;  // several batches over small_ds
  cfg.threads = 1;
  return cfg;
}

/// Empty dataset sharing `src`'s shape and queries — the streaming start.
Dataset empty_like(const Dataset& src) {
  Dataset ds(src.name(), src.dim(), src.metric());
  ds.mutable_queries() = src.queries();
  return ds;
}

core::AlgasConfig serve_cfg() {
  core::AlgasConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 64;
  cfg.search.beam_width = 2;
  cfg.search.offset_beam = 16;
  cfg.slots = 4;
  cfg.host_threads = 1;
  return cfg;
}

void expect_same_graph(const Graph& a, const Graph& b) {
  ASSERT_EQ(a.num_nodes(), b.num_nodes());
  ASSERT_EQ(a.degree(), b.degree());
  EXPECT_EQ(a.entry_point(), b.entry_point());
  EXPECT_EQ(a.adjacency(), b.adjacency());
}

// ---------------- insert ----------------

TEST(MutableInsert, FromEmptyMatchesOfflineBuild) {
  for (const Metric metric : {Metric::kL2, Metric::kCosine}) {
    SCOPED_TRACE(metric == Metric::kL2 ? "l2" : "cosine");
    const Dataset full = small_ds(metric);
    const BuildConfig cfg = small_cfg();
    const BuildReport offline = build_graph(GraphKind::kNsw, full, cfg);

    MutableIndex idx(empty_like(full), cfg);
    const auto rep = idx.insert(full.base());
    EXPECT_EQ(rep.inserted, full.num_base());
    EXPECT_GT(rep.batches, 1u);
    EXPECT_EQ(idx.published(), full.num_base());
    EXPECT_EQ(idx.pending(), 0u);
    expect_same_graph(idx.graph(), offline.graph);
    // One ledger: the streamed batches sum to exactly the offline cost,
    // float summation order included.
    EXPECT_EQ(rep.scored_points, offline.scored_points);
    EXPECT_EQ(rep.link_evals, offline.link_evals);
    EXPECT_EQ(rep.batches, offline.batches);
    EXPECT_EQ(rep.virtual_build_ns, offline.virtual_build_ns);
    EXPECT_EQ(rep.serial_build_ns, offline.serial_build_ns);
  }
}

TEST(MutableInsert, ServingBetweenPhasesChangesNothing) {
  const Dataset full = small_ds();
  const BuildConfig cfg = small_cfg();

  MutableIndex plain(empty_like(full), cfg);
  plain.insert(full.base());

  // Same rows, but a serve() wedged between every batch's prepare (phase 1)
  // and apply (phase 2) — the live-query interleaving must never leak into
  // the published bytes.
  MutableIndex live(empty_like(full), cfg);
  live.stage(full.base());
  std::uint64_t last_epoch = live.epoch();
  while (live.pending() > 0) {
    core::StagedBatch batch = live.prepare_next();
    if (live.published() > 0) {
      const auto rep = live.serve(serve_cfg(), 8);
      EXPECT_EQ(rep.summary.queries, 8u);
    }
    live.apply(batch);
    EXPECT_EQ(live.epoch(), last_epoch + 1);
    last_epoch = live.epoch();
  }
  expect_same_graph(live.graph(), plain.graph());
}

TEST(MutableInsert, ThreadCountNeverChangesBytes) {
  const Dataset full = small_ds();
  BuildConfig cfg = small_cfg();
  MutableIndex serial(empty_like(full), cfg);
  serial.insert(full.base());
  cfg.threads = 4;
  MutableIndex parallel(empty_like(full), cfg);
  parallel.insert(full.base());
  expect_same_graph(serial.graph(), parallel.graph());
}

TEST(MutableInsert, AdoptedGraphExtends) {
  const Dataset full = small_ds();
  const BuildConfig cfg = small_cfg();
  const std::size_t head = 300;

  Dataset prefix = empty_like(full);
  prefix.append_base({full.base().data(), head * full.dim()});
  const Graph g = build_graph(GraphKind::kNsw, prefix, cfg).graph;

  MutableIndex idx(std::move(prefix), g, cfg);
  EXPECT_EQ(idx.published(), head);
  idx.insert({full.base().data() + head * full.dim(),
              (full.num_base() - head) * full.dim()});
  EXPECT_EQ(idx.published(), full.num_base());
  // Every appended row is linked and in range.
  for (NodeId v = static_cast<NodeId>(head); v < idx.graph().num_nodes();
       ++v) {
    EXPECT_GT(idx.graph().valid_degree(v), 0u);
    for (NodeId u : idx.graph().neighbors(v)) {
      if (u != kInvalidNode) {
        EXPECT_LT(u, idx.graph().num_nodes());
      }
    }
  }
}

TEST(MutableInsert, RejectsBadRowsAndStaleBatches) {
  const Dataset full = small_ds();
  MutableIndex idx(empty_like(full), small_cfg());
  EXPECT_THROW(idx.stage({full.base().data(), 3}), std::invalid_argument);

  idx.stage({full.base().data(), 256 * full.dim()});
  core::StagedBatch a = idx.prepare_next();
  core::StagedBatch b = idx.prepare_next();  // same rows: not yet applied
  EXPECT_EQ(a.first, b.first);
  idx.apply(a);
  EXPECT_THROW(idx.apply(b), std::logic_error);  // now stale
  EXPECT_THROW(idx.apply(a), std::logic_error);  // already applied
  while (idx.pending() > 0) {
    core::StagedBatch batch = idx.prepare_next();
    idx.apply(batch);
  }
}

// ---------------- delete ----------------

TEST(MutableDelete, TombstonedNodeLeavesResultsButRoutes) {
  const Dataset full = small_ds();
  MutableIndex idx(empty_like(full), small_cfg());
  idx.insert(full.base());

  const auto before = idx.serve(serve_cfg(), 10);
  ASSERT_FALSE(before.collector.records().empty());
  const auto& rec = before.collector.records().front();
  ASSERT_FALSE(rec.results.empty());
  const NodeId top = rec.results.front().id();

  EXPECT_TRUE(idx.remove(top));
  EXPECT_FALSE(idx.remove(top));  // already dead
  EXPECT_THROW(idx.remove(static_cast<NodeId>(idx.published())),
               std::out_of_range);
  EXPECT_EQ(idx.live(), idx.published() - 1);

  const auto after = idx.serve(serve_cfg(), 10);
  for (const auto& r : after.collector.records()) {
    EXPECT_EQ(r.results.size(), serve_cfg().search.topk);
    for (const auto& kv : r.results) EXPECT_NE(kv.id(), top);
  }
}

TEST(MutableDelete, NoTombstonesMeansIdenticalResults) {
  const Dataset full = small_ds();
  const BuildConfig bcfg = small_cfg();
  MutableIndex idx(empty_like(full), bcfg);
  idx.insert(full.base());

  // serve() wires the (empty) tombstone set into the engine; a plain engine
  // run without one must produce byte-identical result lists.
  core::AlgasEngine engine(idx.dataset(), idx.graph(), serve_cfg());
  const auto plain = engine.run_closed_loop(20);
  const auto served = idx.serve(serve_cfg(), 20);
  ASSERT_EQ(plain.collector.records().size(),
            served.collector.records().size());
  for (std::size_t i = 0; i < plain.collector.records().size(); ++i) {
    const auto& a = plain.collector.records()[i].results;
    const auto& b = served.collector.records()[i].results;
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t j = 0; j < a.size(); ++j) {
      EXPECT_EQ(a[j].key, b[j].key);
      EXPECT_EQ(a[j].dist, b[j].dist);
    }
  }
}

// ---------------- compact ----------------

TEST(MutableCompact, ReclaimsAndRemapsInOrder) {
  const Dataset full = small_ds();
  MutableIndex idx(empty_like(full), small_cfg());
  idx.insert(full.base());

  std::set<NodeId> dead;
  for (NodeId v = 7; v < 200; v += 13) {
    idx.remove(v);
    dead.insert(v);
  }
  const std::uint64_t epoch = idx.epoch();
  const auto rep = idx.compact();
  EXPECT_EQ(rep.dropped, dead.size());
  EXPECT_EQ(rep.survivors, full.num_base() - dead.size());
  EXPECT_EQ(idx.published(), rep.survivors);
  EXPECT_EQ(idx.live(), rep.survivors);
  EXPECT_EQ(idx.tombstones().count(), 0u);
  EXPECT_EQ(idx.epoch(), epoch + 1);

  // Survivors keep their original vectors, in id order.
  std::size_t old_id = 0;
  for (NodeId v = 0; static_cast<std::size_t>(v) < rep.survivors; ++v) {
    while (dead.count(static_cast<NodeId>(old_id))) ++old_id;
    const auto now = idx.dataset().base_vector(v);
    const auto was = full.base_vector(old_id);
    for (std::size_t d = 0; d < now.size(); ++d) EXPECT_EQ(now[d], was[d]);
    ++old_id;
  }
  // And the graph references only surviving ids.
  for (NodeId v = 0; v < idx.graph().num_nodes(); ++v) {
    for (NodeId u : idx.graph().neighbors(v)) {
      if (u != kInvalidNode) {
        EXPECT_LT(u, idx.graph().num_nodes());
      }
    }
  }
  // Searches over the compacted index still find close neighbors.
  const auto served = idx.serve(serve_cfg(), 10);
  EXPECT_FALSE(served.collector.records().empty());

  // A second compact with nothing dead is a no-op.
  const auto again = idx.compact();
  EXPECT_EQ(again.dropped, 0u);
  EXPECT_EQ(idx.epoch(), epoch + 1);
}

TEST(MutableCompact, RefusesWithStagedRows) {
  const Dataset full = small_ds();
  MutableIndex idx(empty_like(full), small_cfg());
  idx.insert({full.base().data(), 300 * full.dim()});
  idx.remove(5);
  idx.stage({full.base().data() + 300 * full.dim(), 50 * full.dim()});
  EXPECT_THROW(idx.compact(), std::logic_error);
}

TEST(MutableChurn, FullLifecycleIsThreadCountInvariant) {
  const Dataset full = small_ds();
  auto churn = [&](std::size_t threads) {
    BuildConfig cfg = small_cfg();
    cfg.threads = threads;
    MutableIndex idx(empty_like(full), cfg);
    idx.insert({full.base().data(), 300 * full.dim()});
    for (NodeId v = 2; v < 290; v += 7) idx.remove(v);
    idx.insert({full.base().data() + 300 * full.dim(),
                (full.num_base() - 300) * full.dim()});
    idx.compact();
    return idx;
  };
  const MutableIndex a = churn(1);
  const MutableIndex b = churn(4);
  expect_same_graph(a.graph(), b.graph());
  EXPECT_EQ(a.dataset().base(), b.dataset().base());
}

// ---------------- snapshots ----------------

TEST(MutableSnapshot, RoundTripsGraphTombstonesEpoch) {
  const Dataset full = small_ds();
  MutableIndex idx(empty_like(full), small_cfg());
  idx.insert(full.base());
  idx.remove(3);
  idx.remove(111);
  const auto path =
      (std::filesystem::temp_directory_path() / "algas_mx.amx").string();
  idx.save(path);

  MutableIndex loaded = MutableIndex::load(path, idx.dataset(), small_cfg());
  expect_same_graph(loaded.graph(), idx.graph());
  EXPECT_EQ(loaded.epoch(), idx.epoch());
  EXPECT_EQ(loaded.tombstones().ids(), idx.tombstones().ids());
  EXPECT_EQ(loaded.live(), idx.live());
  std::remove(path.c_str());
}

TEST(MutableSnapshot, RejectsGarbageTruncationAndMismatch) {
  const Dataset full = small_ds();
  MutableIndex idx(empty_like(full), small_cfg());
  idx.insert(full.base());
  idx.remove(8);
  const auto dir = std::filesystem::temp_directory_path();
  const auto path = (dir / "algas_mx_ok.amx").string();
  idx.save(path);

  {
    const auto bad = (dir / "algas_mx_bad.amx").string();
    std::ofstream out(bad);
    out << "not a snapshot at all";
    out.close();
    EXPECT_THROW(MutableIndex::load(bad, idx.dataset(), small_cfg()),
                 std::runtime_error);
    std::remove(bad.c_str());
  }
  {
    // Truncate the valid snapshot mid-graph.
    std::ifstream in(path, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    in.close();
    const auto cut = (dir / "algas_mx_cut.amx").string();
    std::ofstream out(cut, std::ios::binary);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size() / 2));
    out.close();
    EXPECT_THROW(MutableIndex::load(cut, idx.dataset(), small_cfg()),
                 std::runtime_error);
    // Trailing bytes after a complete snapshot are also an error.
    const auto fat = (dir / "algas_mx_fat.amx").string();
    std::ofstream out2(fat, std::ios::binary);
    out2.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
    out2 << "junk";
    out2.close();
    EXPECT_THROW(MutableIndex::load(fat, idx.dataset(), small_cfg()),
                 std::runtime_error);
    std::remove(cut.c_str());
    std::remove(fat.c_str());
  }
  {
    // The paired dataset must cover exactly the snapshot's nodes.
    Dataset shorter = empty_like(full);
    shorter.append_base({full.base().data(), 100 * full.dim()});
    EXPECT_THROW(MutableIndex::load(path, shorter, small_cfg()),
                 std::invalid_argument);
  }
  std::remove(path.c_str());
}

TEST(MutableSnapshot, RefusesWithStagedRows) {
  const Dataset full = small_ds();
  MutableIndex idx(empty_like(full), small_cfg());
  idx.insert({full.base().data(), 300 * full.dim()});
  idx.stage({full.base().data() + 300 * full.dim(), 10 * full.dim()});
  EXPECT_THROW(idx.save("/tmp/never_written.amx"), std::logic_error);
}

// ---------------- protocol ----------------

TEST(MutationCheckerRules, WritersAreExclusive) {
  MutationChecker c;
  c.reader_enter("r1");
  c.reader_enter("r2");  // readers may overlap
  EXPECT_THROW(c.writer_enter("w"), std::logic_error);
  c.reader_exit();
  c.reader_exit();
  c.writer_enter("w");
  EXPECT_THROW(c.writer_enter("w2"), std::logic_error);
  EXPECT_THROW(c.reader_enter("r"), std::logic_error);
  c.writer_exit();
  c.reader_enter("r");  // fine again
  c.reader_exit();
}

// The reader/reader overlap the protocol allows: phase-1 prepare on one
// thread while queries serve on another. Runs under TSan in CI; the cosine
// metric makes it exercise the base_norms cache that used to lazily build
// on first use.
TEST(MutableChurn, PrepareConcurrentWithServe) {
  const Dataset full = small_ds(Metric::kCosine, 500);
  BuildConfig cfg = small_cfg();
  cfg.insert_batch = 100;
  MutableIndex idx(empty_like(full), cfg);
  idx.insert({full.base().data(), 400 * full.dim()});
  idx.stage({full.base().data() + 400 * full.dim(), 100 * full.dim()});

  core::StagedBatch batch;
  std::thread preparer([&] { batch = idx.prepare_next(); });
  const auto rep = idx.serve(serve_cfg(), 20);
  preparer.join();
  EXPECT_EQ(rep.summary.queries, 20u);
  EXPECT_EQ(batch.count, 100u);
  idx.apply(batch);
  EXPECT_EQ(idx.published(), 500u);

  // Same bytes as the fully serial path.
  MutableIndex serial(empty_like(full), cfg);
  serial.insert({full.base().data(), 400 * full.dim()});
  serial.insert({full.base().data() + 400 * full.dim(), 100 * full.dim()});
  expect_same_graph(idx.graph(), serial.graph());
}

// ---------------- degenerate sizes ----------------

TEST(MutableEdges, EmptyAndSingleAndBelowDegree) {
  const Dataset full = small_ds();
  const BuildConfig cfg = small_cfg();

  MutableIndex idx(empty_like(full), cfg);
  EXPECT_EQ(idx.published(), 0u);
  EXPECT_EQ(idx.graph().entry_point(), kInvalidNode);
  const auto rep0 = idx.serve(serve_cfg(), 5);  // nothing published yet
  EXPECT_EQ(rep0.summary.queries, 0u);

  idx.insert({full.base().data(), full.dim()});  // n = 1
  EXPECT_EQ(idx.published(), 1u);
  EXPECT_EQ(idx.graph().entry_point(), 0u);
  const auto rep1 = idx.serve(serve_cfg(), 5);
  for (const auto& r : rep1.collector.records()) {
    ASSERT_EQ(r.results.size(), 1u);
    EXPECT_EQ(r.results[0].id(), 0u);
  }

  idx.insert({full.base().data() + full.dim(), 3 * full.dim()});  // n < degree
  EXPECT_EQ(idx.published(), 4u);
  const auto rep4 = idx.serve(serve_cfg(), 5);
  for (const auto& r : rep4.collector.records()) {
    EXPECT_EQ(r.results.size(), 4u);
  }
}

}  // namespace
}  // namespace algas
