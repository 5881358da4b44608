// Golden virtual-time fingerprints of the engine on the tiny world.
//
// Idle persistent-kernel CTAs park between queries instead of running one
// queue event per poll, and all of a slot's CTAs wake together when the
// host writes Work or Quit (DESIGN.md, "Idle CTAs park"). Each case pins an
// FNV-1a over every field of every record (slot, timestamps, deadline,
// priority, disposition, device work and results), and the event count
// with every skipped idle poll added back (sim_events + elided_polls), the
// host poll count and the PCIe counters.
//
// The cases cover every HostSync mode in a closed loop and in a bounded-
// admission open loop whose deadlines both shed and evict, each unsharded
// and over K=4 shards; one run with more slots than queries, where sibling
// CTAs idle in lockstep from launch until late arrivals; runs where
// siblings that parked apart, or a slot whose host worker writes Work
// right after its last Finish, must start every query at one instant, in
// CTA order; and accept-predicate runs whose filter bitset and tombstone
// set reject results while the rejected nodes keep routing. The search
// rounds of every case run on the build executor
// (DESIGN.md, "Search rounds off the simulator thread"); one case checks
// that records, event counts and trace bytes are the same at 1, 2 and 4
// executor threads.
//
// The GraphGolden cases pin the construction path the same way: an FNV-1a
// over each built graph (shape, entry point, every adjacency row) and its
// BuildCost ledger, for offline builds and for a MutableIndex streamed in
// waves, then tombstoned and compacted, at 1, 2 and 4 build threads. The
// values were recorded from the serial link phase, so a parallel link
// phase that drifts from it fails here even when it agrees with itself
// across thread counts.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/env.hpp"
#include "common/node_set.hpp"
#include "core/engine.hpp"
#include "core/mutable_index.hpp"
#include "core/sharded_engine.hpp"
#include "simgpu/trace.hpp"
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
      {0xe70c736dc2922dcdull, 26829, 376, 1128, 170592, 376, 672},
      {0xdef5c04922dc6f65ull, 127039, 1381, 4389, 190356, 1381, 2688},
      {0xd671cfaf19274e40ull, 18747, 1300, 1072, 170368, 0, 992},
      {0x9c84b24b765537ccull, 66745, 1716, 4288, 189952, 0, 3968},
      {0x4b0702bba49a6f88ull, 24609, 0, 752, 169088, 0, 672},
      {0xaeadabd560101ea4ull, 76015, 0, 3008, 184832, 0, 2688},
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
      {0x1f1eb578e804bcdcull, 28553, 422, 879, 74520, 422, 416},
      {0xa91f3ae4fc324197ull, 128867, 1136, 3374, 109376, 1136, 2032},
      {0xd3ac5e3c18edfd14ull, 28693, 1386, 778, 90784, 0, 728},
      {0x1f207be1b5a5afa3ull, 126469, 1765, 3236, 130304, 0, 3008},
      {0x6b7862a48e168b5cull, 29309, 0, 528, 85632, 0, 480},
      {0x5dfe8f3f7413f1ccull, 128097, 0, 2256, 105984, 0, 2048},
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
      rep, {0x378649b2aa46e809ull, 15647, 201, 148, 13216, 0, 136},
      "lockstep");
}

TEST(VirtualTimeGolden, SiblingsWakeTogetherInCtaOrder) {
  // Every query's CTAs must start it at one instant and in CTA-index
  // order, whatever history parked them: twenty-four slots of eight greedy
  // CTAs on one host worker, where idle siblings park at different
  // instants, and four host workers of one slot each, where a worker can
  // write Work right after the slot's last CTA wrote Finish.
  struct Case {
    std::string name;
    AlgasConfig cfg;
    std::size_t queries;
    Fingerprint want;
  };
  std::vector<Case> cases;
  for (const HostSync sync : {HostSync::kPollNaive, HostSync::kBlocking}) {
    AlgasConfig cfg = golden_config(sync);
    cfg.search.candidate_len = 32;
    cfg.search.beam_width = 1;
    cfg.search.offset_beam = 8;
    cfg.slots = 24;
    cfg.host_threads = 1;
    cfg.seed = 5;
    cases.push_back({std::string("siblings ") + host_sync_name(sync), cfg, 30,
                     {}});
  }
  AlgasConfig four = golden_config(HostSync::kPollMirrored);
  four.host_threads = 4;
  cases.push_back({"four host workers", four, 40, {}});
  cases[0].want = {0x43bd14332c6f6ed8ull, 190758, 240, 972, 67008, 240, 672};
  cases[1].want = {0xb3df0a8cd0885a12ull, 113482, 0, 732, 66048, 0, 672};
  cases[2].want = {0xa4dd2a11df3450ddull, 18978, 2016, 1072, 170368, 0, 992};

  for (Case& c : cases) {
    sim::Tracer tracer;
    c.cfg.tracer = &tracer;
    const auto rep = run_single(c.cfg, nullptr, c.queries);
    expect_fingerprint(rep, c.want, c.name);

    // Each query's first span on every CTA lane, in trace order.
    std::map<std::string, std::vector<const sim::TraceEventRec*>> firsts;
    std::set<std::pair<std::string, int>> seen;
    for (const sim::TraceEventRec& e : tracer.events()) {
      if (e.cat == "cta" && seen.insert({e.name, e.tid}).second) {
        firsts[e.name].push_back(&e);
      }
    }
    ASSERT_EQ(firsts.size(), c.queries) << c.name;
    for (const auto& [query, spans] : firsts) {
      EXPECT_EQ(spans.size(), rep.plan.n_parallel) << c.name << " " << query;
      for (std::size_t k = 1; k < spans.size(); ++k) {
        EXPECT_EQ(spans[k]->ts_ns, spans[0]->ts_ns) << c.name << " " << query;
        EXPECT_EQ(spans[k]->tid, spans[0]->tid + static_cast<int>(k))
            << c.name << " " << query;
      }
    }
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
        sharded ? Fingerprint{0x7374070cf3df37d4ull, 69844, 1809, 4288,
                              435712, 0, 3968}
                : Fingerprint{0xdad82bbd2d6c057aull, 51432, 5855, 1072,
                              661888, 0, 992};
    expect_fingerprint(rep, want, name);
  }
}

/// Everything a run exposes that must not depend on which thread computed
/// its search rounds: the record fingerprint (which carries
/// sim_events + elided_polls) and the trace file's bytes.
struct RunBits {
  Fingerprint fp;
  std::string trace;
};

RunBits run_bits(const std::function<EngineReport(sim::Tracer*)>& run) {
  sim::Tracer tracer;
  const EngineReport rep = run(&tracer);
  std::ostringstream os;
  tracer.write_json(os);
  return {fingerprint(rep), os.str()};
}

TEST(VirtualTimeGolden, SameBitsAtEveryBuildThreadCount) {
  // ALGAS_BUILD_THREADS sizes the executor that runs the engines' search
  // jobs (1 = the simulator thread runs each job itself). Which thread
  // computes a round must not move a bit of any record, event count or
  // trace.
  const auto& world = algas::testing::tiny_world();
  const auto arrivals = open_arrivals();
  const std::vector<std::pair<std::string,
                              std::function<EngineReport(sim::Tracer*)>>>
      runs = {
          {"mirrored closed loop, 4 host workers",
           [](sim::Tracer* tracer) {
             AlgasConfig cfg = golden_config(HostSync::kPollMirrored);
             cfg.host_threads = 4;
             cfg.tracer = tracer;
             return run_single(cfg, nullptr, 40);
           }},
          {"K=4 open loop, shed and evict",
           [&arrivals](sim::Tracer* tracer) {
             AlgasConfig cfg = open_config(HostSync::kPollMirrored);
             cfg.tracer = tracer;
             return run_sharded(cfg, &arrivals, 0);
           }},
          {"tombstoned MutableIndex::serve",
           [&world](sim::Tracer* tracer) {
             MutableIndex idx(world.ds, world.nsw, BuildConfig{});
             for (std::size_t v = 0; v < world.ds.num_base(); v += 7) {
               idx.remove(static_cast<NodeId>(v));
             }
             AlgasConfig cfg = golden_config(HostSync::kPollMirrored);
             cfg.tracer = tracer;
             return idx.serve(cfg, 40);
           }},
      };

  const std::size_t before = build_threads();  // 0: unset (hardware)
  std::vector<std::vector<RunBits>> got;       // [threads][run]
  for (const char* threads : {"1", "2", "4"}) {
    ::setenv("ALGAS_BUILD_THREADS", threads, 1);
    got.emplace_back();
    for (const auto& [name, run] : runs) got.back().push_back(run_bits(run));
  }
  if (before == 0) {
    ::unsetenv("ALGAS_BUILD_THREADS");
  } else {
    ::setenv("ALGAS_BUILD_THREADS", std::to_string(before).c_str(), 1);
  }

  for (std::size_t r = 0; r < runs.size(); ++r) {
    const RunBits& serial = got[0][r];
    EXPECT_GT(serial.fp.events, 0u) << runs[r].first;
    EXPECT_FALSE(serial.trace.empty()) << runs[r].first;
    for (std::size_t t = 1; t < got.size(); ++t) {
      const RunBits& other = got[t][r];
      const std::string name = runs[r].first + " at threads index " +
                               std::to_string(t);
      EXPECT_EQ(describe(other.fp), describe(serial.fp)) << name;
      EXPECT_TRUE(other.trace == serial.trace) << name;
    }
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
       {0x9405336cf623a9e8ull, 6, 390319, 0x4104a94ccccccccdull,
        0x4171b1be56666668ull}},
      {"cosine f16 uneven tail", Metric::kCosine, StorageCodec::kF16, 2000,
       384,
       {0xb958e6124ed035f3ull, 6, 390265, 0x4104a94cccccccccull,
        0x4171b1425cccccceull}},
      {"l2 int8 uneven tail", Metric::kL2, StorageCodec::kInt8, 2000, 384,
       {0x3b3acf01421f0883ull, 6, 395196, 0x4104e68e66666666ull,
        0x4171d8a4f3333334ull}},
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
       {0xb1ea22703a5979c3ull, 500, 72339, 0x415fb08e5999999aull,
        0x415fb08e5999999aull}},
  };
  for (const Case& c : cases) {
    Dataset ds = algas::testing::tiny_world(c.metric).ds;
    ds.set_base({ds.base().begin(),
                 ds.base().begin() +
                     static_cast<std::ptrdiff_t>(c.rows * ds.dim())});
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
  // and the compaction patches the rows that lost an edge. Each stream runs
  // twice: straight through, and saved and reloaded through an ALGASMX1
  // snapshot after wave 1, which must not change a byte. Last, the first
  // 300 removed rows stream back into the compacted graph as one more
  // wave, so links land on patched rows and on rows compact copied.
  struct Case {
    Metric metric;
    GraphFingerprint streamed;
    std::uint64_t compacted;
    std::size_t patched;
    GraphFingerprint rewave;
  };
  const Case cases[] = {
      {Metric::kL2,
       {0x48c0b60d5107981cull, 9, 375086, 0x41094e7b33333333ull,
        0x4171404c93333334ull},
       0x5c7be14feec2ecbaull, 1564,
       {0x25a8d96350100fc2ull, 2, 57606, 0x40e8d15333333333ull,
        0x4145133633333335ull}},
      {Metric::kCosine,
       {0xd2223c853719f8deull, 9, 368659, 0x41092b2800000000ull,
        0x41710d5816666667ull},
       0x6c50c6976d47b6d7ull, 1566,
       {0xc681ffddd98dad13ull, 2, 57168, 0x40e8091333333333ull,
        0x4144f70999999998ull}},
  };
  for (const Case& c : cases) {
    const Dataset& full = algas::testing::tiny_world(c.metric).ds;
    const std::size_t dim = full.dim();
    for (const std::size_t threads : kBuildThreads) {
      for (const bool reload : {false, true}) {
        const std::string name =
            std::string(metric_name(c.metric)) + " threads=" +
            std::to_string(threads) + (reload ? " reloaded" : "");
        const BuildConfig cfg = golden_build(256, threads);
        MutableIndex idx(Dataset(full.name(), dim, c.metric), cfg);
        InsertReport streamed;
        std::size_t first = 0;
        for (const std::size_t wave : {700u, 700u, 600u}) {
          streamed +=
              idx.insert({full.base().data() + first * dim, wave * dim});
          first += wave;
          if (reload && first == 700) {
            const std::string path =
                (std::filesystem::temp_directory_path() /
                 ("algas_golden_" + std::string(metric_name(c.metric)) +
                  "_" + std::to_string(threads) + ".amx"))
                    .string();
            idx.save(path);
            idx = MutableIndex::load(path, idx.dataset(), cfg);
            std::remove(path.c_str());
          }
        }
        expect_graph(graph_fingerprint(idx.graph(), streamed), c.streamed,
                     name + " streamed");
        std::vector<float> removed;
        for (std::size_t v = 3; v < first; v += 5) {
          idx.remove(static_cast<NodeId>(v));
          const auto row = full.base_vector(v);
          removed.insert(removed.end(), row.begin(), row.end());
        }
        const CompactReport rep = idx.compact();
        EXPECT_EQ(graph_hash(idx.graph()), c.compacted)
            << name << " compacted got 0x" << std::hex
            << graph_hash(idx.graph()) << std::dec << " patched "
            << rep.patched;
        EXPECT_EQ(rep.patched, c.patched) << name;
        const InsertReport rewave =
            idx.insert({removed.data(), 300 * dim});
        expect_graph(graph_fingerprint(idx.graph(), rewave), c.rewave,
                     name + " rewave");
      }
    }
  }
}

TEST(GraphGolden, LinkEvalsAtEveryThreadCount) {
  // The host link phase's pair distances, pinned so that a change which
  // silently stops using the rows' diverse prefixes fails here without any
  // timing (the graphs are pinned above).
  struct Case {
    const char* name;
    Metric metric;
    StorageCodec storage;
    std::uint64_t link_evals;
  };
  const Case cases[] = {
      {"l2 uneven tail", Metric::kL2, StorageCodec::kF32, 1228244},
      {"cosine uneven tail", Metric::kCosine, StorageCodec::kF32, 1227153},
      {"l2 int8 uneven tail", Metric::kL2, StorageCodec::kInt8, 1227230},
  };
  for (const Case& c : cases) {
    Dataset ds = algas::testing::tiny_world(c.metric).ds;
    ds.set_storage(c.storage);
    ds.set_base({ds.base().begin(),
                 ds.base().begin() +
                     static_cast<std::ptrdiff_t>(2000 * ds.dim())});
    for (const std::size_t threads : kBuildThreads) {
      const BuildReport rep =
          build_graph(GraphKind::kNsw, ds, golden_build(384, threads));
      EXPECT_EQ(rep.link_evals, c.link_evals)
          << c.name << " threads=" << threads;
    }
  }
}

TEST(GraphGolden, ReloadedIndexRescoresItsRows) {
  // A snapshot keeps adjacency only, so the rows of a reloaded index have
  // no diverse prefix: their next re-selections score every pair. The
  // graph is the same; the link work is larger.
  const Dataset& full = algas::testing::tiny_world(Metric::kL2).ds;
  const std::size_t dim = full.dim();
  const BuildConfig cfg = golden_build(256, 2);
  std::uint64_t graphs[2] = {};
  std::size_t link_evals[2] = {};
  for (const bool reload : {false, true}) {
    MutableIndex idx(Dataset(full.name(), dim, Metric::kL2), cfg);
    InsertReport streamed = idx.insert({full.base().data(), 700 * dim});
    if (reload) {
      const std::string path = (std::filesystem::temp_directory_path() /
                                "algas_golden_link_evals.amx")
                                   .string();
      idx.save(path);
      idx = MutableIndex::load(path, idx.dataset(), cfg);
      std::remove(path.c_str());
    }
    streamed +=
        idx.insert({full.base().data() + 700 * dim, (2000 - 700) * dim});
    graphs[reload] = graph_hash(idx.graph());
    link_evals[reload] = streamed.link_evals;
  }
  EXPECT_EQ(graphs[1], graphs[0]);
  EXPECT_GT(link_evals[1], link_evals[0]);
}

}  // namespace
}  // namespace algas::core
