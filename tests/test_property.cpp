// Property-based and invariant tests across modules: randomized inputs,
// parameterized sweeps, functional invariance of timing-only knobs, and
// failure injection.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <tuple>

#include "common/rng.hpp"
#include "core/engine.hpp"
#include "search/candidate_list.hpp"
#include "search/intra_cta.hpp"
#include "search/multi_cta.hpp"
#include "search/topk_merge.hpp"
#include "simgpu/channel.hpp"
#include "simgpu/wave_schedule.hpp"
#include "test_util.hpp"

namespace algas {
namespace {

// ---------------- candidate list vs std reference ----------------------

class CandidateListProperty : public ::testing::TestWithParam<std::uint64_t> {
};

TEST_P(CandidateListProperty, MergeSequenceMatchesSortedReference) {
  // Random rounds of takes and merges, at the query path's lengths, a
  // builder's ef_construction of 48 and a tiny 3. After every merge the list
  // must equal the first L entries of the sorted union (id, distance bits,
  // checked flag), and every take must return the indices a scan from index
  // 0 would. Keys cover NaN, ±0, +inf, equal distances broken by id and
  // entries at or past the list's last entry; ids are distinct, as the
  // visited set makes them within a query. One list merges each whole
  // expand list, the other only what can_enter keeps.
  Rng rng(GetParam());
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  const auto bits = [](float f) { return std::bit_cast<std::uint32_t>(f); };
  for (const std::size_t cap : {128u, 64u, 48u, 3u}) {
    search::CandidateList full(cap);
    search::CandidateList pruned(cap);
    std::vector<KV> ref;  // sorted, at most cap entries, flags included
    std::set<NodeId> used;
    const auto fresh_id = [&] {
      NodeId id = 0;
      do {
        id = static_cast<NodeId>(rng.next_below(1u << 20));
      } while (!used.insert(id).second);
      return id;
    };
    const auto expect_list = [&](const search::CandidateList& list,
                                 const char* which, int round) {
      for (std::size_t i = 0; i < cap; ++i) {
        const KV& got = list.at(i);
        if (i >= ref.size()) {
          EXPECT_TRUE(got.is_empty()) << which << " cap " << cap << " round "
                                      << round << " slot " << i;
          continue;
        }
        EXPECT_EQ(got.id(), ref[i].id())
            << which << " cap " << cap << " round " << round << " slot " << i;
        EXPECT_EQ(bits(got.dist), bits(ref[i].dist))
            << which << " cap " << cap << " round " << round << " slot " << i;
        EXPECT_EQ(got.checked(), ref[i].checked())
            << which << " cap " << cap << " round " << round << " slot " << i;
      }
    };
    const auto take = [&](int round) {
      const std::size_t want = 1 + rng.next_below(4);
      std::vector<std::size_t> expected;
      for (std::size_t i = 0; i < ref.size() && expected.size() < want; ++i) {
        if (ref[i].checked()) continue;
        ref[i].mark_checked();
        expected.push_back(i);
      }
      for (search::CandidateList* list : {&full, &pruned}) {
        std::vector<std::size_t> got(want);
        got.resize(list->take_unchecked(want, got));
        EXPECT_EQ(got, expected) << "cap " << cap << " round " << round;
      }
    };
    const auto seed = [&](float d) {
      const KV kv = KV::make(d, fresh_id());
      full.seed(kv);
      pruned.seed(kv);
      ref.insert(std::upper_bound(ref.begin(), ref.end(), kv), kv);
      if (ref.size() > cap) ref.pop_back();
    };

    full.reset();
    pruned.reset();
    seed(5.0f);
    take(-1);
    seed(2.0f);  // in front of the cursor
    for (int round = 0; round < 40; ++round) {
      for (std::size_t t = rng.next_below(3); t > 0; --t) take(round);
      const std::size_t n =
          1 + rng.next_below(std::min<std::size_t>(cap, 24));
      std::vector<KV> expand;
      for (std::size_t i = 0; i < n; ++i) {
        const float last = ref.empty() ? 1.0f : ref.back().dist;
        float d = 0.0f;
        switch (rng.next_below(9)) {
          case 0: d = nan; break;
          case 1: d = -0.0f; break;
          case 2: d = 0.0f; break;
          case 3: d = inf; break;
          case 4: d = static_cast<float>(rng.next_below(4)); break;
          case 5: d = last; break;  // ties the last entry; the id decides
          case 6: d = std::nextafter(last, inf); break;
          default: d = rng.next_float() * 4.0f; break;
        }
        expand.push_back(KV::make(d, fresh_id()));
      }
      std::sort(expand.begin(), expand.end());
      std::vector<KV> kept;
      for (const KV& e : expand) {
        const bool enters = ref.size() < cap || e < ref.back();
        EXPECT_EQ(pruned.can_enter(e), enters) << "cap " << cap;
        if (enters) kept.push_back(e);
      }
      EXPECT_EQ(full.merge_sorted(expand), 2 * cap);
      EXPECT_EQ(pruned.merge_sorted(kept), 2 * cap);
      ref.insert(ref.end(), expand.begin(), expand.end());
      std::stable_sort(ref.begin(), ref.end());
      if (ref.size() > cap) ref.resize(cap);
      expect_list(full, "full", round);
      expect_list(pruned, "pruned", round);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CandidateListProperty,
                         ::testing::Values(1u, 2u, 3u, 4u, 5u, 6u, 7u, 8u));

// ---------------- topk merge vs reference -------------------------------

class TopkMergeProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(TopkMergeProperty, MatchesFlatSortWithDedup) {
  Rng rng(GetParam() * 31 + 7);
  const std::size_t runs = 1 + rng.next_below(6);
  const std::size_t len = 16;
  std::vector<KV> concat;
  for (std::size_t r = 0; r < runs; ++r) {
    std::vector<KV> run;
    for (std::size_t i = 0; i < len; ++i) {
      // Small id space to force duplicates across runs.
      run.push_back(KV::make(rng.next_float(),
                             static_cast<NodeId>(rng.next_below(40))));
    }
    std::sort(run.begin(), run.end());
    concat.insert(concat.end(), run.begin(), run.end());
  }
  const std::size_t k = 1 + rng.next_below(12);
  const auto merged = search::merge_sorted_runs(concat, runs, len, k,
                                                search::AcceptPredicate{});

  // Reference: flat sort + first-occurrence dedup.
  auto flat = concat;
  std::sort(flat.begin(), flat.end());
  std::vector<KV> expected;
  std::set<NodeId> seen;
  for (const auto& kv : flat) {
    if (expected.size() == k) break;
    if (seen.insert(kv.id()).second) expected.push_back(kv);
  }
  ASSERT_EQ(merged.size(), expected.size());
  for (std::size_t i = 0; i < merged.size(); ++i) {
    EXPECT_EQ(merged[i].id(), expected[i].id());
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, TopkMergeProperty,
                         ::testing::Range<std::uint64_t>(0, 12));

// ---------------- search invariants --------------------------------------

TEST(SearchProperty, ResultsAscendingAndUnique) {
  const auto& world = testing::tiny_world();
  const sim::CostModel cm;
  for (std::size_t L : {32, 64, 128}) {
    for (std::size_t beam : {1, 2, 4}) {
      search::SearchConfig cfg;
      cfg.topk = 16;
      cfg.candidate_len = L;
      cfg.beam_width = beam;
      cfg.offset_beam = 12;
      for (std::size_t q = 0; q < 20; ++q) {
        const auto res = search::multi_cta_search(
            world.ds, world.nsw, cm, cfg, 2, world.ds.query(q), q, 3);
        ASSERT_FALSE(res.topk.empty());
        std::set<NodeId> ids;
        for (std::size_t i = 0; i < res.topk.size(); ++i) {
          EXPECT_TRUE(ids.insert(res.topk[i].id()).second);
          if (i > 0) {
            EXPECT_LE(res.topk[i - 1].dist, res.topk[i].dist);
          }
          // Reported distances must be true distances.
          EXPECT_FLOAT_EQ(res.topk[i].dist,
                          distance(world.ds.metric(), world.ds.query(q),
                                   world.ds.base_vector(res.topk[i].id())));
        }
      }
    }
  }
}

TEST(SearchProperty, DeterministicAcrossRuns) {
  const auto& world = testing::tiny_world();
  const sim::CostModel cm;
  search::SearchConfig cfg;
  cfg.candidate_len = 64;
  cfg.beam_width = 4;
  cfg.offset_beam = 8;
  for (std::size_t q = 0; q < 10; ++q) {
    const auto a = search::multi_cta_search(world.ds, world.nsw, cm, cfg, 4,
                                            world.ds.query(q), q, 9);
    const auto b = search::multi_cta_search(world.ds, world.nsw, cm, cfg, 4,
                                            world.ds.query(q), q, 9);
    ASSERT_EQ(a.topk.size(), b.topk.size());
    for (std::size_t i = 0; i < a.topk.size(); ++i) {
      EXPECT_EQ(a.topk[i].id(), b.topk[i].id());
    }
    EXPECT_DOUBLE_EQ(a.critical_path_ns, b.critical_path_ns);
  }
}

// ---------------- timing-only knobs don't change results ----------------

TEST(EngineProperty, TimingKnobsAreFunctionallyInert) {
  // state mirroring and host thread count change virtual time and traffic,
  // never results: per-query ids must match exactly.
  const auto& world = testing::tiny_world();
  core::AlgasConfig base;
  base.search.topk = 10;
  base.search.candidate_len = 64;
  base.slots = 4;
  base.n_parallel = 4;

  auto run_ids = [&](const core::AlgasConfig& cfg) {
    core::AlgasEngine engine(world.ds, world.nsw, cfg);
    const auto rep = engine.run_closed_loop(40);
    std::vector<std::vector<NodeId>> ids(40);
    for (const auto& r : rep.collector.records()) {
      for (const auto& kv : r.results) ids[r.query_index].push_back(kv.id());
    }
    return ids;
  };

  const auto reference = run_ids(base);
  {
    auto cfg = base;
    cfg.host_sync = core::HostSync::kPollNaive;
    EXPECT_EQ(run_ids(cfg), reference);
  }
  {
    auto cfg = base;
    cfg.host_threads = 4;
    EXPECT_EQ(run_ids(cfg), reference);
  }
  {
    auto cfg = base;
    cfg.cost.pcie_latency_ns *= 10;  // slower wires, same answers
    EXPECT_EQ(run_ids(cfg), reference);
  }
}

// ---------------- engine sweeps -------------------------------------------

class EngineSweep
    : public ::testing::TestWithParam<std::tuple<std::size_t, std::size_t>> {
};

TEST_P(EngineSweep, CompletesAndRecalls) {
  const auto [slots, n_parallel] = GetParam();
  const auto& world = testing::tiny_world();
  core::AlgasConfig cfg;
  cfg.search.topk = 10;
  cfg.search.candidate_len = 64;
  cfg.slots = slots;
  cfg.n_parallel = n_parallel;
  core::AlgasEngine engine(world.ds, world.nsw, cfg);
  const auto rep = engine.run_closed_loop(40);
  EXPECT_EQ(rep.summary.queries, 40u);
  EXPECT_GT(rep.recall, 0.85);
  EXPECT_GT(rep.summary.throughput_qps, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    SlotsByParallel, EngineSweep,
    ::testing::Combine(::testing::Values<std::size_t>(1, 2, 5, 16),
                       ::testing::Values<std::size_t>(1, 3, 8)));

// ---------------- wave scheduling invariants -----------------------------

class WaveProperty : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(WaveProperty, ConservationAndBounds) {
  Rng rng(GetParam() * 131);
  const std::size_t queries = 1 + rng.next_below(8);
  const std::size_t ctas_per_query = 1 + rng.next_below(4);
  const std::size_t capacity = 1 + rng.next_below(6);
  std::vector<sim::CtaTask> tasks;
  double total = 0.0;
  double max_dur = 0.0;
  for (std::size_t q = 0; q < queries; ++q) {
    for (std::size_t t = 0; t < ctas_per_query; ++t) {
      const double dur = 10.0 + rng.next_double() * 100.0;
      tasks.push_back({q, dur});
      total += dur;
      max_dur = std::max(max_dur, dur);
    }
  }
  const auto timing = sim::wave_schedule(
      tasks, queries, capacity, std::vector<double>(queries, 0.0));
  // Work conservation.
  EXPECT_NEAR(timing.active_ns, total, 1e-6);
  // Makespan bounds: max(total/capacity, longest task) <= end <= total.
  EXPECT_GE(timing.gpu_end_ns + 1e-9,
            std::max(total / static_cast<double>(capacity), max_dur));
  EXPECT_LE(timing.gpu_end_ns, total + 1e-6);
  // Every query finishes within the kernel.
  for (double t : timing.query_final) {
    EXPECT_GT(t, 0.0);
    EXPECT_LE(t, timing.gpu_end_ns + 1e-9);
  }
  EXPECT_GE(timing.idle_ns, -1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, WaveProperty,
                         ::testing::Range<std::uint64_t>(0, 10));

// ---------------- channel properties --------------------------------------

TEST(ChannelProperty, UtilizationNeverExceedsOne) {
  sim::CostModel cm;
  sim::Channel ch(cm);
  Rng rng(5);
  double now = 0.0;
  for (int i = 0; i < 200; ++i) {
    now += rng.next_double() * 50.0;
    ch.transfer(now, rng.next_below(4096), sim::Xfer::kBulk);
  }
  // Link busy time can never exceed the span it has been driven over.
  EXPECT_LE(ch.utilization(now + 1e6), 1.0);
  EXPECT_GT(ch.utilization(now + 1e6), 0.0);
}

TEST(ChannelProperty, FifoCompletionOrderForDataTransfers) {
  sim::CostModel cm;
  sim::Channel ch(cm);
  // Back-to-back data posts at the same instant complete in issue order.
  double prev = 0.0;
  for (int i = 0; i < 20; ++i) {
    const double d = ch.post(0.0, 1024, sim::Xfer::kBulk);
    EXPECT_GT(d, prev);
    prev = d;
  }
}

TEST(ChannelProperty, ControlPlanePostsAreConstantTime) {
  sim::CostModel cm;
  sim::Channel ch(cm);
  const double first = ch.post(0.0, 4, sim::Xfer::kStateWrite);
  for (int i = 0; i < 50; ++i) {
    EXPECT_DOUBLE_EQ(ch.post(0.0, 4, sim::Xfer::kStateWrite), first);
  }
  EXPECT_EQ(ch.counters(sim::Xfer::kStateWrite).transactions, 51u);
}

}  // namespace
}  // namespace algas
