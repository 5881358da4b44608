// Golden virtual-time fingerprints of the engine on the tiny world.
//
// Idle persistent-kernel CTAs park between queries instead of running one
// queue event per poll, and are re-armed on their own poll sequence when
// the host writes Work or Quit (DESIGN.md, "Idle CTAs park"). That must be
// invisible to every modeled figure. Each case pins an FNV-1a over every
// field of every record (slot, timestamps, deadline, priority, disposition,
// device work and results), and the poll-every-period event count
// (sim_events + elided_polls), host poll count and PCIe counters that a loop
// running every idle poll as an event produced.
//
// The cases cover every HostSync mode in a closed loop and in a bounded-
// admission open loop whose deadlines both shed and evict, each unsharded
// and over K=4 shards; one run with more slots than queries, where sibling
// CTAs idle in lockstep from launch until late arrivals; one where
// rounding merges the poll sequences of siblings that parked apart; and
// accept-predicate runs whose filter bitset and tombstone set reject
// results while the rejected nodes keep routing.
//
// The GraphGolden cases pin the construction path the same way: an FNV-1a
// over each built graph (shape, entry point, every adjacency row) and its
// BuildCost ledger, for offline builds and for a MutableIndex streamed in
// waves, then tombstoned and compacted, at 1, 2 and 4 build threads. The
// values were recorded from the serial link phase, so a parallel link
// phase that drifts from it fails here even when it agrees with itself
// across thread counts.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/node_set.hpp"
#include "core/engine.hpp"
#include "core/mutable_index.hpp"
#include "core/sharded_engine.hpp"
#include "test_util.hpp"

namespace algas::core {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Fingerprint {
  std::uint64_t records = 0;  ///< FNV-1a over every record, in order
  std::uint64_t events = 0;   ///< sim_events + elided_polls
  std::uint64_t host_polls = 0;
  std::uint64_t pcie_transactions = 0;
  std::uint64_t pcie_bytes = 0;
  std::uint64_t pcie_state_polls = 0;
  std::uint64_t pcie_state_writes = 0;
};

struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ull;
  void mix(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  }
  void mix_double(double d) {
    std::uint64_t bits;
    std::memcpy(&bits, &d, sizeof bits);
    mix(bits);
  }
};

Fingerprint fingerprint(const EngineReport& rep) {
  Fnv f;
  for (const metrics::QueryRecord& r : rep.collector.records()) {
    f.mix(r.query_index);
    f.mix(r.slot);
    f.mix_double(r.arrival_ns);
    f.mix_double(r.dispatch_ns);
    f.mix_double(r.gpu_done_ns);
    f.mix_double(r.done_ns);
    f.mix_double(r.deadline_ns);
    f.mix(r.priority);
    f.mix(static_cast<std::uint64_t>(r.disposition));
    f.mix(r.steps);
    f.mix(r.rounds);
    f.mix(r.scored_points);
    f.mix_double(r.gpu_cost.select_ns);
    f.mix_double(r.gpu_cost.gather_ns);
    f.mix_double(r.gpu_cost.compute_ns);
    f.mix_double(r.gpu_cost.sort_ns);
    f.mix(r.results.size());
    for (const KV& kv : r.results) {
      std::uint32_t bits;
      std::memcpy(&bits, &kv.dist, sizeof bits);
      f.mix(bits);
      f.mix(kv.key);
    }
  }
  Fingerprint fp;
  fp.records = f.h;
  fp.events = rep.sim_events + rep.elided_polls;
  fp.host_polls = rep.host_polls;
  fp.pcie_transactions = rep.pcie_transactions;
  fp.pcie_bytes = rep.pcie_bytes;
  fp.pcie_state_polls = rep.pcie_state_poll_transactions;
  fp.pcie_state_writes = rep.pcie_state_write_transactions;
  return fp;
}

std::string describe(const Fingerprint& fp) {
  char buf[256];
  std::snprintf(buf, sizeof buf,
                "{0x%016llxull, %llu, %llu, %llu, %llu, %llu, %llu}",
                static_cast<unsigned long long>(fp.records),
                static_cast<unsigned long long>(fp.events),
                static_cast<unsigned long long>(fp.host_polls),
                static_cast<unsigned long long>(fp.pcie_transactions),
                static_cast<unsigned long long>(fp.pcie_bytes),
                static_cast<unsigned long long>(fp.pcie_state_polls),
                static_cast<unsigned long long>(fp.pcie_state_writes));
  return buf;
}

void expect_fingerprint(const EngineReport& rep, const Fingerprint& want,
                        const std::string& name) {
  const Fingerprint got = fingerprint(rep);
  EXPECT_EQ(got.records, want.records) << name << " got " << describe(got);
  EXPECT_EQ(got.events, want.events) << name;
  EXPECT_EQ(got.host_polls, want.host_polls) << name;
  EXPECT_EQ(got.pcie_transactions, want.pcie_transactions) << name;
  EXPECT_EQ(got.pcie_bytes, want.pcie_bytes) << name;
  EXPECT_EQ(got.pcie_state_polls, want.pcie_state_polls) << name;
  EXPECT_EQ(got.pcie_state_writes, want.pcie_state_writes) << name;
}

AlgasConfig golden_config(HostSync sync) {
  AlgasConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 64;
  cfg.search.beam_width = 2;
  cfg.search.offset_beam = 16;
  cfg.slots = 4;
  cfg.host_threads = 2;
  cfg.host_sync = sync;
  return cfg;
}

/// Bounded-admission open loop: bursts of 8 arrivals 150 ns apart every
/// 40 us into a queue of 3. Relative deadlines cycle 6 us (shed in the
/// queue), 30 us (evicted when the slot finishes late), 120 us and none;
/// every third query is high priority.
AlgasConfig open_config(HostSync sync) {
  AlgasConfig cfg = golden_config(sync);
  cfg.admission.capacity = 3;
  cfg.admission.policy = ShedPolicy::kDropOldest;
  return cfg;
}

std::vector<PendingQuery> open_arrivals() {
  static constexpr double kDeadlines[] = {6e3, 30e3, 120e3, kInf};
  std::vector<PendingQuery> out;
  for (std::size_t i = 0; i < 48; ++i) {
    PendingQuery q;
    q.query_index = i;
    q.arrival_ns =
        static_cast<double>(i / 8) * 40e3 + static_cast<double>(i % 8) * 150.0;
    q.deadline_ns = q.arrival_ns + kDeadlines[i % 4];
    q.priority = i % 3 == 0 ? 1 : 0;
    out.push_back(q);
  }
  return out;
}

EngineReport run_sharded(const AlgasConfig& base,
                         const std::vector<PendingQuery>* arrivals,
                         std::size_t closed_queries) {
  ShardedConfig cfg;
  cfg.base = base;
  cfg.shards = 4;
  cfg.build.degree = 16;
  cfg.build.ef_construction = 48;
  ShardedEngine engine(algas::testing::tiny_world().ds, cfg);
  ShardedReport rep = arrivals ? engine.run(*arrivals)
                               : engine.run_closed_loop(closed_queries);
  return std::move(rep.merged);
}

EngineReport run_single(const AlgasConfig& cfg,
                        const std::vector<PendingQuery>* arrivals,
                        std::size_t closed_queries) {
  const auto& world = algas::testing::tiny_world();
  AlgasEngine engine(world.ds, world.nsw, cfg);
  return arrivals ? engine.run(*arrivals)
                  : engine.run_closed_loop(closed_queries);
}

constexpr HostSync kModes[] = {HostSync::kPollNaive, HostSync::kPollMirrored,
                               HostSync::kBlocking};

TEST(VirtualTimeGolden, ClosedLoopEveryModeAndShardCount) {
  // Index: mode * 2 + (K == 4).
  const Fingerprint want[] = {
      {0x927dea8dea56f560ull, 26913, 379, 1131, 170604, 379, 672},
      {0xd1652cedcc0de41cull, 126931, 1391, 4399, 190396, 1391, 2688},
      {0x5c115c1f0348738eull, 18696, 1270, 1072, 170368, 0, 992},
      {0xb692754202e7c9d2ull, 65545, 1717, 4288, 189952, 0, 3968},
      {0x33ecd6cd498b3cbfull, 24544, 0, 752, 169088, 0, 672},
      {0x4fcf91765ca22b18ull, 74735, 0, 3008, 184832, 0, 2688},
  };
  for (std::size_t m = 0; m < 3; ++m) {
    const AlgasConfig cfg = golden_config(kModes[m]);
    const std::string mode = host_sync_name(kModes[m]);
    const auto single = run_single(cfg, nullptr, 40);
    EXPECT_GT(single.elided_polls, 0u) << mode;
    expect_fingerprint(single, want[m * 2], mode + " K=1");
    expect_fingerprint(run_sharded(cfg, nullptr, 40), want[m * 2 + 1],
                       mode + " K=4");
  }
}

TEST(VirtualTimeGolden, OpenLoopShedAndEvictEveryModeAndShardCount) {
  const Fingerprint want[] = {
      {0xb319b2621fcd434aull, 30142, 429, 903, 74676, 429, 432},
      {0xd0f1de8ed7b36b01ull, 128461, 1158, 3378, 108312, 1158, 2016},
      {0xa40d46bad82aec54ull, 28641, 1310, 778, 90784, 0, 728},
      {0xc9de76e06e7ce9f7ull, 125677, 1871, 3235, 129280, 0, 3008},
      {0xb2d6e1551a3f7907ull, 29338, 0, 528, 85632, 0, 480},
      {0x1c31a724d7ce1c2aull, 127642, 0, 2256, 105984, 0, 2048},
  };
  const auto arrivals = open_arrivals();
  for (std::size_t m = 0; m < 3; ++m) {
    const AlgasConfig cfg = open_config(kModes[m]);
    const std::string mode = host_sync_name(kModes[m]);
    for (const bool sharded : {false, true}) {
      const auto rep = sharded ? run_sharded(cfg, &arrivals, 0)
                               : run_single(cfg, &arrivals, 0);
      const std::string name = mode + (sharded ? " K=4" : " K=1");
      // The workload must exercise every non-served path it pins.
      const auto& s = rep.summary;
      EXPECT_GT(s.served, 0u) << name;
      EXPECT_GT(s.shed_queue + s.shed_deadline, 0u) << name;
      EXPECT_GT(s.evicted, 0u) << name;
      expect_fingerprint(rep, want[m * 2 + (sharded ? 1 : 0)], name);
    }
  }
}

TEST(VirtualTimeGolden, MoreSlotsThanQueriesIdleInLockstep) {
  // Sixteen slots, six queries arriving well after launch: every CTA parks
  // at launch on the same poll sequence as its siblings, and ten slots
  // idle until they retire.
  AlgasConfig cfg = golden_config(HostSync::kPollMirrored);
  cfg.slots = 16;
  cfg.n_parallel = 4;
  std::vector<PendingQuery> arrivals;
  for (std::size_t i = 0; i < 6; ++i) {
    arrivals.push_back({i, 50e3 + static_cast<double>(i) * 700.0});
  }
  const auto rep = run_single(cfg, &arrivals, 0);
  EXPECT_GT(rep.elided_polls, rep.sim_events);
  expect_fingerprint(
      rep, {0xc662aad76eede04bull, 15647, 201, 148, 13216, 0, 136},
      "lockstep");
}

TEST(VirtualTimeGolden, SiblingsOnMergedPollSequences) {
  // Twenty-four slots of eight greedy CTAs on one host worker: idle
  // siblings that parked at different instants end up on the very same
  // poll instants once rounding merges their sequences, and must wake in
  // the order the per-poll loop ran them there, which is not park order.
  const Fingerprint want[] = {
      {0x314a6a3a436c973dull, 190703, 240, 972, 67008, 240, 672},
      {0xa3d75f17b095366aull, 111092, 0, 732, 66048, 0, 672},
  };
  const HostSync modes[] = {HostSync::kPollNaive, HostSync::kBlocking};
  for (std::size_t m = 0; m < 2; ++m) {
    AlgasConfig cfg = golden_config(modes[m]);
    cfg.search.candidate_len = 32;
    cfg.search.beam_width = 1;
    cfg.search.offset_beam = 8;
    cfg.slots = 24;
    cfg.host_threads = 1;
    cfg.seed = 5;
    expect_fingerprint(run_single(cfg, nullptr, 30), want[m],
                       std::string("merged ") + host_sync_name(modes[m]));
  }
}

TEST(VirtualTimeGolden, AcceptPredicateFilterAndTombstones) {
  // A filter accepting every third row, conjoined with tombstones on every
  // seventh: the candidate list widens 4x for the ~29% selectivity, and
  // rejected nodes route the search but never reach a result. The sharded
  // run carries the filter alone (tombstones hold global ids).
  const auto& world = algas::testing::tiny_world();
  const std::size_t n = world.ds.num_base();
  NodeBitset filter(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (v % 3 == 0) filter.set(static_cast<NodeId>(v));
  }
  StampedSet dead(n);
  for (std::size_t v = 0; v < n; v += 7) dead.insert(static_cast<NodeId>(v));

  const search::AcceptPredicate both(&filter, &dead);
  const search::AcceptPredicate filter_only(&filter);
  AlgasConfig cfg = golden_config(HostSync::kPollMirrored);
  for (const bool sharded : {false, true}) {
    const search::AcceptPredicate& accept = sharded ? filter_only : both;
    cfg.search.accept = accept;
    const auto rep = sharded ? run_sharded(cfg, nullptr, 40)
                             : run_single(cfg, nullptr, 40);
    const std::string name = sharded ? "filter K=4" : "filter+tombstones K=1";
    std::size_t returned = 0;
    for (const metrics::QueryRecord& r : rep.collector.records()) {
      for (const KV& kv : r.results) {
        EXPECT_TRUE(accept.accepts(kv.id())) << name << " id " << kv.id();
        ++returned;
      }
    }
    EXPECT_GT(returned, 0u) << name;
    const Fingerprint want =
        sharded ? Fingerprint{0xb07f86ed3797b303ull, 68416, 1810, 4288,
                              435712, 0, 3968}
                : Fingerprint{0x61841fb8ebde5a42ull, 53416, 5968, 1072,
                              661888, 0, 992};
    expect_fingerprint(rep, want, name);
  }
}

// ---------------- built graphs ----------------

std::uint64_t double_bits(double d) {
  std::uint64_t bits;
  std::memcpy(&bits, &d, sizeof bits);
  return bits;
}

std::uint64_t graph_hash(const Graph& g) {
  Fnv f;
  f.mix(g.num_nodes());
  f.mix(g.degree());
  f.mix(g.entry_point());
  for (const NodeId u : g.adjacency()) f.mix(u);
  return f.h;
}

/// A built graph and the ledger of the batches that built it (virtual
/// times as bits).
struct GraphFingerprint {
  std::uint64_t graph = 0;
  std::uint64_t batches = 0;
  std::uint64_t scored_points = 0;
  std::uint64_t virtual_build_bits = 0;
  std::uint64_t serial_build_bits = 0;
};

GraphFingerprint graph_fingerprint(const Graph& g, const BuildCost& cost) {
  return {graph_hash(g), cost.batches, cost.scored_points,
          double_bits(cost.virtual_build_ns),
          double_bits(cost.serial_build_ns)};
}

std::string describe(const GraphFingerprint& fp) {
  char buf[160];
  std::snprintf(buf, sizeof buf, "{0x%016llxull, %llu, %llu, 0x%016llxull, "
                "0x%016llxull}",
                static_cast<unsigned long long>(fp.graph),
                static_cast<unsigned long long>(fp.batches),
                static_cast<unsigned long long>(fp.scored_points),
                static_cast<unsigned long long>(fp.virtual_build_bits),
                static_cast<unsigned long long>(fp.serial_build_bits));
  return buf;
}

void expect_graph(const GraphFingerprint& got, const GraphFingerprint& want,
                  const std::string& name) {
  EXPECT_EQ(got.graph, want.graph) << name << " got " << describe(got);
  EXPECT_EQ(got.batches, want.batches) << name;
  EXPECT_EQ(got.scored_points, want.scored_points) << name;
  EXPECT_EQ(got.virtual_build_bits, want.virtual_build_bits) << name;
  EXPECT_EQ(got.serial_build_bits, want.serial_build_bits) << name;
}

constexpr std::size_t kBuildThreads[] = {1, 2, 4};

BuildConfig golden_build(std::size_t insert_batch, std::size_t threads) {
  BuildConfig cfg;
  cfg.degree = 16;
  cfg.ef_construction = 48;
  cfg.insert_batch = insert_batch;
  cfg.threads = threads;
  return cfg;
}

TEST(GraphGolden, OfflineBuildsAtEveryThreadCount) {
  struct Case {
    const char* name;
    Metric metric;
    StorageCodec codec;
    std::size_t rows;
    std::size_t insert_batch;
    GraphFingerprint want;
  };
  // 2000 % 384 leaves an uneven 80-row tail; a batch wider than the rows
  // is the bootstrap batch alone.
  const Case cases[] = {
      {"l2 uneven tail", Metric::kL2, StorageCodec::kF32, 2000, 384,
       {0x3a354e433e144539ull, 6, 396935, 0x4104ef54cccccccdull,
        0x4171e62a3ccccccfull}},
      {"cosine uneven tail", Metric::kCosine, StorageCodec::kF32, 2000, 384,
       {0xa017b589d42c2066ull, 6, 390321, 0x4104ae8800000000ull,
        0x4171b1ca43333334ull}},
      {"cosine f16 uneven tail", Metric::kCosine, StorageCodec::kF16, 2000,
       384,
       {0x9f2acaa6e24d7af3ull, 6, 390272, 0x4104a94cccccccccull,
        0x4171b14c9999999aull}},
      {"l2 bootstrap only", Metric::kL2, StorageCodec::kF32, 2000, 4096,
       {0x47dd91d259254e7full, 1, 1999000, 0x410eb27666666666ull,
        0x4190d6fbf3333333ull}},
      {"cosine bootstrap only", Metric::kCosine, StorageCodec::kF32, 600,
       1024,
       {0x939c5cd9a366bf22ull, 1, 179700, 0x40e4e52666666666ull,
        0x415cf18633333333ull}},
      {"l2 insert_batch 1", Metric::kL2, StorageCodec::kF32, 500, 1,
       {0xdbff6fd4e822c6ffull, 500, 73967, 0x415fe34226666663ull,
        0x415fe34226666663ull}},
      {"cosine insert_batch 1", Metric::kCosine, StorageCodec::kF32, 500, 1,
       {0x690bb4c1ec7a3883ull, 500, 72339, 0x415fb08e5999999aull,
        0x415fb08e5999999aull}},
  };
  for (const Case& c : cases) {
    Dataset ds = algas::testing::tiny_world(c.metric).ds;
    ds.mutable_base().resize(c.rows * ds.dim());
    ds.set_storage(c.codec);
    for (const std::size_t threads : kBuildThreads) {
      const BuildReport rep = build_graph(
          GraphKind::kNsw, ds, golden_build(c.insert_batch, threads));
      expect_graph(graph_fingerprint(rep.graph, rep), c.want,
                   std::string(c.name) + " threads=" +
                       std::to_string(threads));
    }
  }
}

TEST(GraphGolden, StreamedWavesThenRemovesAndCompact) {
  // Waves of 700, 700 and 600 rows against 256-row batches, so batch
  // boundaries fall inside waves; then every fifth row from 3 is removed
  // and the compaction patches the rows that lost an edge.
  struct Case {
    Metric metric;
    GraphFingerprint streamed;
    std::uint64_t compacted;
    std::size_t patched;
  };
  const Case cases[] = {
      {Metric::kL2,
       {0x48c0b60d5107981cull, 9, 375086, 0x41094e7b33333333ull,
        0x4171404c93333334ull},
       0x5c7be14feec2ecbaull, 1564},
      {Metric::kCosine,
       {0xef79a3fc1ef033eeull, 9, 368659, 0x41092b2800000000ull,
        0x41710d5816666667ull},
       0x11372c3213d8014aull, 1566},
  };
  for (const Case& c : cases) {
    const Dataset& full = algas::testing::tiny_world(c.metric).ds;
    const std::size_t dim = full.dim();
    for (const std::size_t threads : kBuildThreads) {
      const std::string name = std::string(metric_name(c.metric)) +
                               " threads=" + std::to_string(threads);
      MutableIndex idx(Dataset(full.name(), dim, c.metric),
                       golden_build(256, threads));
      InsertReport streamed;
      std::size_t first = 0;
      for (const std::size_t wave : {700u, 700u, 600u}) {
        streamed += idx.insert({full.base().data() + first * dim, wave * dim});
        first += wave;
      }
      expect_graph(graph_fingerprint(idx.graph(), streamed), c.streamed,
                   name + " streamed");
      for (std::size_t v = 3; v < first; v += 5) {
        idx.remove(static_cast<NodeId>(v));
      }
      const CompactReport rep = idx.compact();
      EXPECT_EQ(graph_hash(idx.graph()), c.compacted)
          << name << " compacted got 0x" << std::hex
          << graph_hash(idx.graph()) << std::dec << " patched "
          << rep.patched;
      EXPECT_EQ(rep.patched, c.patched) << name;
    }
  }
}

}  // namespace
}  // namespace algas::core
