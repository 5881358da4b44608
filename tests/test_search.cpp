#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>
#include <vector>

#include "common/node_set.hpp"
#include "common/rng.hpp"
#include "metrics/recall.hpp"
#include "search/candidate_list.hpp"
#include "search/greedy.hpp"
#include "search/intra_cta.hpp"
#include "search/kv.hpp"
#include "search/multi_cta.hpp"
#include "search/topk_merge.hpp"
#include "test_util.hpp"

namespace algas::search {
namespace {

// ---------------- kv.hpp ----------------

TEST(Kv, FlagPackingRoundTrip) {
  KV kv = KV::make(1.5f, 12345);
  EXPECT_EQ(kv.id(), 12345u);
  EXPECT_FALSE(kv.checked());
  kv.mark_checked();
  EXPECT_TRUE(kv.checked());
  EXPECT_EQ(kv.id(), 12345u);  // id survives the flag
  EXPECT_FALSE(kv.is_empty());
  EXPECT_TRUE(KV::empty().is_empty());
}

TEST(Kv, OrderingEmptiesLast) {
  const KV a = KV::make(1.0f, 5);
  const KV b = KV::make(2.0f, 3);
  const KV e = KV::empty();
  EXPECT_TRUE(a < b);
  EXPECT_TRUE(a < e);
  EXPECT_TRUE(b < e);
  EXPECT_FALSE(e < a);
}

TEST(Kv, TiesBreakById) {
  const KV a = KV::make(1.0f, 3);
  const KV b = KV::make(1.0f, 7);
  EXPECT_TRUE(a < b);
  EXPECT_FALSE(b < a);
}

TEST(Kv, StrictWeakOrderOverEveryKindOfKey) {
  // Every distance class (NaN of both signs, ±0, ±inf, finite, equal
  // distances) at a few ids, each also with the checked flag, plus empties:
  // the strict-weak-order axioms hold over every pair and triple.
  const float nan = std::numeric_limits<float>::quiet_NaN();
  const float inf = std::numeric_limits<float>::infinity();
  std::vector<KV> keys;
  for (const float d : {-inf, -1.0f, -0.0f, 0.0f, 1.0f, 1.0f, inf, nan, -nan}) {
    for (const NodeId id : {0u, 1u, 7u}) {
      KV kv = KV::make(d, id);
      keys.push_back(kv);
      kv.mark_checked();
      keys.push_back(kv);
    }
  }
  keys.push_back(KV::empty());
  // The order compares distances first; that is exact only because an
  // empty always carries +inf.
  EXPECT_EQ(KV::empty().dist, inf);
  EXPECT_EQ(KV{}.dist, inf);
  const auto equiv = [](const KV& a, const KV& b) {
    return !(a < b) && !(b < a);
  };
  for (const KV& a : keys) {
    EXPECT_FALSE(a < a);
    for (const KV& b : keys) {
      EXPECT_FALSE(a < b && b < a);
      for (const KV& c : keys) {
        EXPECT_TRUE(!(a < b && b < c) || a < c);
        EXPECT_TRUE(!(equiv(a, b) && equiv(b, c)) || equiv(a, c));
      }
    }
  }

  // The order itself: numbers by distance (±0 equal), then NaN, then
  // empties; equal distances by id; the checked flag never matters.
  const auto rank = [](const KV& kv) {
    if (kv.is_empty()) return 2;
    return std::isnan(kv.dist) ? 1 : 0;
  };
  for (const KV& a : keys) {
    for (const KV& b : keys) {
      bool expected = false;
      if (rank(a) != rank(b)) {
        expected = rank(a) < rank(b);
      } else if (rank(a) == 0 && a.dist != b.dist) {
        expected = a.dist < b.dist;
      } else if (rank(a) < 2) {
        expected = a.id() < b.id();
      }
      EXPECT_EQ(a < b, expected) << a.dist << "/" << a.id() << " vs "
                                 << b.dist << "/" << b.id();
      // Finite keys and empties order exactly as the NaN-blind comparator
      // did before NaN had a place.
      if (!std::isnan(a.dist) && !std::isnan(b.dist)) {
        const bool before = a.is_empty() != b.is_empty()
                                ? b.is_empty()
                                : (a.dist != b.dist ? a.dist < b.dist
                                                    : a.id() < b.id());
        EXPECT_EQ(a < b, before);
      }
    }
  }
}

// ---------------- candidate_list.hpp ----------------

TEST(CandidateList, RejectsZeroCapacity) {
  EXPECT_THROW(CandidateList(0), std::invalid_argument);
  // Any other length works: the builders keep ef_construction entries, and
  // only normalize_config rounds the query path's L to a power of two.
  CandidateList list(3);
  EXPECT_EQ(list.capacity(), 3u);
  std::vector<KV> expand{KV::make(1.0f, 4), KV::make(2.0f, 5),
                         KV::make(3.0f, 6)};
  list.merge_sorted(expand);
  EXPECT_EQ(list.topk(3).back().id(), 6u);
}

TEST(CandidateList, SeedKeepsSorted) {
  CandidateList list(8);
  list.reset();
  list.seed(KV::make(5.0f, 1));
  list.seed(KV::make(2.0f, 2));
  list.seed(KV::make(9.0f, 3));
  EXPECT_EQ(list.at(0).id(), 2u);
  EXPECT_EQ(list.at(1).id(), 1u);
  EXPECT_EQ(list.at(2).id(), 3u);
  EXPECT_TRUE(std::is_sorted(list.entries().begin(), list.entries().end()));
}

TEST(CandidateList, FirstUncheckedAndTake) {
  CandidateList list(8);
  list.reset();
  list.seed(KV::make(1.0f, 10));
  list.seed(KV::make(2.0f, 20));
  list.seed(KV::make(3.0f, 30));

  // The best unchecked entries, ascending, each marked checked once; 0
  // once the list is exhausted (the search-termination condition).
  std::vector<std::size_t> idx(2);
  EXPECT_EQ(list.take_unchecked(2, idx), 2u);
  EXPECT_EQ(idx[0], 0u);
  EXPECT_EQ(idx[1], 1u);
  EXPECT_TRUE(list.at(0).checked());
  EXPECT_TRUE(list.at(1).checked());
  EXPECT_FALSE(list.at(2).checked());
  EXPECT_EQ(list.take_unchecked(2, idx), 1u);
  EXPECT_EQ(idx[0], 2u);
  EXPECT_EQ(list.take_unchecked(2, idx), 0u);
  EXPECT_EQ(list.take_unchecked(1, idx), 0u);
}

TEST(CandidateList, MergeKeepsBestL) {
  CandidateList list(4);
  list.reset();
  list.seed(KV::make(10.0f, 1));
  list.seed(KV::make(20.0f, 2));
  std::vector<KV> expand{KV::make(5.0f, 3), KV::make(15.0f, 4),
                         KV::make(25.0f, 5), KV::make(30.0f, 6)};
  list.merge_sorted(expand);
  EXPECT_EQ(list.at(0).id(), 3u);
  EXPECT_EQ(list.at(1).id(), 1u);
  EXPECT_EQ(list.at(2).id(), 4u);
  EXPECT_EQ(list.at(3).id(), 2u);  // 25 and 30 fell off the end
}

TEST(CandidateList, MergePreservesCheckedFlags) {
  CandidateList list(4);
  list.reset();
  list.seed(KV::make(10.0f, 1));
  std::vector<std::size_t> idx(1);
  list.take_unchecked(1, idx);  // mark id 1 checked
  std::vector<KV> expand{KV::make(5.0f, 2)};
  list.merge_sorted(expand);
  EXPECT_EQ(list.at(0).id(), 2u);
  EXPECT_FALSE(list.at(0).checked());
  EXPECT_EQ(list.at(1).id(), 1u);
  EXPECT_TRUE(list.at(1).checked());
}

TEST(CandidateList, MergeRejectsOversizedExpand) {
  CandidateList list(4);
  list.reset();
  std::vector<KV> expand(8, KV::make(1.0f, 1));
  EXPECT_THROW(list.merge_sorted(expand), std::invalid_argument);
}

TEST(CandidateList, TopkSkipsNothingWhenFull) {
  CandidateList list(4);
  list.reset();
  for (NodeId i = 0; i < 4; ++i) {
    list.seed(KV::make(static_cast<float>(i), i));
  }
  const auto top2 = list.topk(2);
  ASSERT_EQ(top2.size(), 2u);
  EXPECT_EQ(top2[0].id(), 0u);
  EXPECT_EQ(top2[1].id(), 1u);
  EXPECT_EQ(list.topk(100).size(), 4u);
}

// ---------------- StampedSet as the visited table ----------------

TEST(VisitedTable, TestAndSetCounts) {
  StampedSet v(100);
  EXPECT_TRUE(v.insert(5));
  EXPECT_FALSE(v.insert(5));
  EXPECT_EQ(v.count(), 1u);
  v.clear();
  EXPECT_FALSE(v.contains(5));
}

// ---------------- intra_cta.hpp ----------------

TEST(IntraCta, NormalizeConfigRaisesListForDegree) {
  SearchConfig cfg;
  cfg.candidate_len = 16;
  cfg.topk = 8;
  const auto norm = normalize_config(cfg, 64);
  EXPECT_GE(norm.candidate_len, 64u);
  EXPECT_EQ(next_pow2(norm.candidate_len), norm.candidate_len);
}

TEST(IntraCta, NormalizeConfigShrinksBeam) {
  SearchConfig cfg;
  cfg.candidate_len = 64;
  cfg.beam_width = 8;  // 8 * 32 = 256 > 64: must shrink
  const auto norm = normalize_config(cfg, 32);
  EXPECT_LE(next_pow2(norm.beam_width * 32), norm.candidate_len);
  EXPECT_GE(norm.beam_width, 1u);
}

TEST(IntraCta, FindsNearestOnTinyWorld) {
  const auto& world = testing::tiny_world();
  const sim::CostModel cm;
  SearchConfig cfg;
  cfg.topk = 10;
  cfg.candidate_len = 64;
  IntraCtaSearch cta(world.ds, world.nsw, cm, cfg);

  double total_recall = 0.0;
  const std::size_t nq = 50;
  for (std::size_t q = 0; q < nq; ++q) {
    StampedSet visited(world.ds.num_base());
    cta.reset(world.ds.query(q), world.nsw.entry_point(), &visited);
    StepCost cost;
    while (cta.step(cost)) {
    }
    total_recall += metrics::recall_at_k(world.ds, q, cta.results(), 10);
  }
  EXPECT_GT(total_recall / nq, 0.9);
}

TEST(IntraCta, StatsAccumulate) {
  const auto& world = testing::tiny_world();
  const sim::CostModel cm;
  SearchConfig cfg;
  cfg.candidate_len = 64;
  IntraCtaSearch cta(world.ds, world.nsw, cm, cfg);
  StampedSet visited(world.ds.num_base());
  cta.reset(world.ds.query(0), world.nsw.entry_point(), &visited);
  StepCost cost;
  while (cta.step(cost)) {
  }
  const auto& st = cta.stats();
  EXPECT_GT(st.rounds, 5u);
  EXPECT_GT(st.expanded_points, 5u);
  EXPECT_GT(st.scored_points, st.expanded_points);
  EXPECT_GT(st.cost.compute_ns, 0.0);
  EXPECT_GT(st.cost.sort_ns, 0.0);
  EXPECT_GT(st.cost.select_ns, 0.0);
}

TEST(IntraCta, TraceRecordsSelectedDistances) {
  const auto& world = testing::tiny_world();
  const sim::CostModel cm;
  SearchConfig cfg;
  cfg.candidate_len = 64;
  IntraCtaSearch cta(world.ds, world.nsw, cm, cfg);
  cta.enable_trace(true);
  StampedSet visited(world.ds.num_base());
  cta.reset(world.ds.query(3), world.nsw.entry_point(), &visited);
  StepCost cost;
  while (cta.step(cost)) {
  }
  const auto& trace = cta.stats().step_distances;
  ASSERT_EQ(trace.size(), cta.stats().expanded_points);
  // Fig 7 shape: the early phase converges — the last selected distance is
  // well below the entry distance.
  EXPECT_LT(trace.back(), trace.front());
}

TEST(IntraCta, BeamExtendReducesSortRounds) {
  const auto& world = testing::tiny_world();
  const sim::CostModel cm;
  SearchConfig greedy;
  greedy.candidate_len = 128;
  greedy.beam_width = 1;
  SearchConfig beam = greedy;
  beam.beam_width = 4;
  beam.offset_beam = 8;

  std::size_t greedy_rounds = 0, beam_rounds = 0;
  double greedy_sort = 0.0, beam_sort = 0.0;
  for (std::size_t q = 0; q < 30; ++q) {
    {
      IntraCtaSearch cta(world.ds, world.nsw, cm, greedy);
      StampedSet visited(world.ds.num_base());
      cta.reset(world.ds.query(q), world.nsw.entry_point(), &visited);
      StepCost cost;
      while (cta.step(cost)) {
      }
      greedy_rounds += cta.stats().rounds;
      greedy_sort += cta.stats().cost.sort_ns;
    }
    {
      IntraCtaSearch cta(world.ds, world.nsw, cm, beam);
      StampedSet visited(world.ds.num_base());
      cta.reset(world.ds.query(q), world.nsw.entry_point(), &visited);
      StepCost cost;
      while (cta.step(cost)) {
      }
      EXPECT_TRUE(cta.in_diffusing_phase());
      beam_rounds += cta.stats().rounds;
      beam_sort += cta.stats().cost.sort_ns;
    }
  }
  EXPECT_LT(beam_rounds, greedy_rounds);
  EXPECT_LT(beam_sort, greedy_sort);
}

TEST(IntraCta, BeamExtendKeepsRecall) {
  const auto& world = testing::tiny_world();
  const sim::CostModel cm;
  SearchConfig beam;
  beam.topk = 10;
  beam.candidate_len = 128;
  beam.beam_width = 4;
  beam.offset_beam = 8;
  double total = 0.0;
  const std::size_t nq = 50;
  for (std::size_t q = 0; q < nq; ++q) {
    IntraCtaSearch cta(world.ds, world.nsw, cm, beam);
    StampedSet visited(world.ds.num_base());
    cta.reset(world.ds.query(q), world.nsw.entry_point(), &visited);
    StepCost cost;
    while (cta.step(cost)) {
    }
    total += metrics::recall_at_k(world.ds, q, cta.results(), 10);
  }
  EXPECT_GT(total / nq, 0.88);  // §IV-B: "does not significantly impact"
}

TEST(IntraCta, VisitedEntryEndsImmediately) {
  const auto& world = testing::tiny_world();
  const sim::CostModel cm;
  SearchConfig cfg;
  IntraCtaSearch cta(world.ds, world.nsw, cm, cfg);
  StampedSet visited(world.ds.num_base());
  visited.insert(world.nsw.entry_point());
  cta.reset(world.ds.query(0), world.nsw.entry_point(), &visited);
  EXPECT_TRUE(cta.done());
  StepCost cost;
  EXPECT_FALSE(cta.step(cost));
}

TEST(IntraCta, InvalidEntryEndsImmediately) {
  // A degenerate graph (zero nodes published, guarded entry accessor) hands
  // the search kInvalidNode or an out-of-range id; both must terminate
  // cleanly instead of indexing the adjacency.
  const auto& world = testing::tiny_world();
  const sim::CostModel cm;
  SearchConfig cfg;
  IntraCtaSearch cta(world.ds, world.nsw, cm, cfg);
  StampedSet visited(world.ds.num_base());
  StepCost cost;
  for (const NodeId entry :
       {kInvalidNode, static_cast<NodeId>(world.nsw.num_nodes())}) {
    cta.reset(world.ds.query(0), entry, &visited);
    EXPECT_TRUE(cta.done());
    EXPECT_FALSE(cta.step(cost));
    EXPECT_TRUE(cta.results().empty());
  }
}

TEST(IntraCta, TombstonesFilterResultsNotRouting) {
  const auto& world = testing::tiny_world();
  const sim::CostModel cm;
  SearchConfig cfg;
  cfg.topk = 10;
  cfg.candidate_len = 64;

  auto run = [&](const SearchConfig& c, std::size_t q) {
    IntraCtaSearch cta(world.ds, world.nsw, cm, c);
    StampedSet visited(world.ds.num_base());
    cta.reset(world.ds.query(q), world.nsw.entry_point(), &visited);
    StepCost cost;
    while (cta.step(cost)) {
    }
    return std::make_pair(cta.results(), cta.stats().expanded_points);
  };

  for (std::size_t q = 0; q < 10; ++q) {
    const auto [plain, plain_expanded] = run(cfg, q);
    ASSERT_GE(plain.size(), 2u);
    StampedSet dead(world.ds.num_base());
    dead.insert(plain[0].id());
    dead.insert(plain[1].id());
    SearchConfig filtered = cfg;
    filtered.accept = AcceptPredicate::deleted_only(&dead);
    const auto [masked, masked_expanded] = run(filtered, q);

    // Routing is untouched: the traversal expanded the same points, and
    // the deleted nodes were still walked through.
    EXPECT_EQ(masked_expanded, plain_expanded);
    // Acceptance is filtered: deleted ids gone, k slots still filled from
    // the candidates behind them.
    EXPECT_EQ(masked.size(), plain.size());
    for (const auto& kv : masked) {
      EXPECT_NE(kv.id(), plain[0].id());
      EXPECT_NE(kv.id(), plain[1].id());
    }
    // The surviving prefix is exactly the plain results minus the dead.
    std::size_t j = 0;
    for (std::size_t i = 2; i < plain.size() && j < masked.size(); ++i) {
      EXPECT_EQ(masked[j].id(), plain[i].id());
      EXPECT_EQ(masked[j].dist, plain[i].dist);
      ++j;
    }
  }
}

TEST(IntraCta, FullyPrunedRoundIsChargedInFull) {
  // Points on a line, query at the origin, L = 2. Round 1 expands the entry
  // (node 0) and fills the list with nodes 1 and 2; round 2 expands node 1,
  // whose neighbours 3 and 4 both lie past the full list's last entry. That
  // round sorts and merges nothing, yet counts its scored points and is
  // charged what the kernel runs: the padded sort of every scored entry and
  // the 2L merge, or the GANNS path's 2L sort.
  Dataset ds("line", 4, Metric::kL2);
  std::vector<float> rows;
  for (const float x : {0.5f, 0.1f, 0.2f, 3.0f, 4.0f}) {
    rows.insert(rows.end(), {x, 0.0f, 0.0f, 0.0f});
  }
  ds.set_base(std::move(rows));
  Graph g(5, 2);
  g.mutable_neighbors(0)[0] = 1;
  g.mutable_neighbors(0)[1] = 2;
  g.mutable_neighbors(1)[0] = 3;
  g.mutable_neighbors(1)[1] = 4;
  const std::vector<float> query(4, 0.0f);
  const sim::CostModel cm;
  for (const bool full_sort : {false, true}) {
    SearchConfig cfg;
    cfg.topk = 2;
    cfg.candidate_len = 2;
    cfg.full_sort_maintenance = full_sort;
    IntraCtaSearch cta(ds, g, cm, cfg);
    ASSERT_EQ(cta.config().candidate_len, 2u);
    StampedSet visited(ds.num_base());
    cta.reset(query, 0, &visited);
    StepCost cost;
    ASSERT_TRUE(cta.step(cost));
    const std::vector<KV> before(cta.candidates().begin(),
                                 cta.candidates().end());
    ASSERT_EQ(before.size(), 2u);
    EXPECT_EQ(before[0].id(), 1u);
    EXPECT_EQ(before[1].id(), 2u);
    EXPECT_FALSE(before[0].checked());
    const std::size_t scored = cta.stats().scored_points;

    ASSERT_TRUE(cta.step(cost));
    // The list is as round 1 left it, save round 2's own take of node 1.
    const auto after = cta.candidates();
    ASSERT_EQ(after.size(), 2u);
    for (std::size_t i = 0; i < 2; ++i) {
      EXPECT_EQ(after[i].id(), before[i].id()) << "slot " << i;
      EXPECT_EQ(after[i].dist, before[i].dist) << "slot " << i;
      EXPECT_EQ(after[i].checked(), i == 0) << "slot " << i;
    }
    EXPECT_EQ(cta.stats().scored_points, scored + 2);
    EXPECT_EQ(cta.stats().rounds, 2u);

    StepCost expected;
    expected.select_ns += cm.select_ns(2);
    for (int nb = 0; nb < 2; ++nb) {
      expected.gather_ns += cm.gather_per_neighbor_ns;
      expected.gather_ns += cm.bitmap_check_ns;
    }
    expected.compute_ns += cm.distance_round_ns(4, 2, 32, ds.elem_bytes());
    if (full_sort) {
      expected.sort_ns += cm.bitonic_sort_ns(4);
    } else {
      expected.sort_ns += cm.bitonic_sort_ns(2);
      expected.sort_ns += cm.bitonic_merge_ns(4);
    }
    EXPECT_EQ(cost.select_ns, expected.select_ns) << "full_sort " << full_sort;
    EXPECT_EQ(cost.gather_ns, expected.gather_ns) << "full_sort " << full_sort;
    EXPECT_EQ(cost.compute_ns, expected.compute_ns)
        << "full_sort " << full_sort;
    EXPECT_EQ(cost.sort_ns, expected.sort_ns) << "full_sort " << full_sort;
    EXPECT_GT(cost.sort_ns, 0.0);
  }
}

// ---------------- topk_merge.hpp ----------------

std::vector<KV> random_kvs(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<KV> v;
  v.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(KV::make(rng.next_float() * 100.0f,
                         static_cast<NodeId>(rng.next_below(1 << 20))));
  }
  return v;
}

TEST(TopkMerge, MergesAndDedups) {
  std::vector<KV> concat{
      // run 0
      KV::make(1.0f, 10), KV::make(3.0f, 30), KV::empty(),
      // run 1 (30 duplicated)
      KV::make(2.0f, 20), KV::make(3.0f, 30), KV::make(4.0f, 40)};
  const auto merged = merge_sorted_runs(concat, 2, 3, 4, AcceptPredicate{});
  ASSERT_EQ(merged.size(), 4u);
  EXPECT_EQ(merged[0].id(), 10u);
  EXPECT_EQ(merged[1].id(), 20u);
  EXPECT_EQ(merged[2].id(), 30u);
  EXPECT_EQ(merged[3].id(), 40u);
}

TEST(TopkMerge, StripsCheckedFlags) {
  std::vector<KV> concat{KV::make(1.0f, 10)};
  concat[0].mark_checked();
  const auto merged = merge_sorted_runs(concat, 1, 1, 1, AcceptPredicate{});
  ASSERT_EQ(merged.size(), 1u);
  EXPECT_FALSE(merged[0].checked());
  EXPECT_EQ(merged[0].id(), 10u);
}

TEST(TopkMerge, EmptyRunsAreFine) {
  std::vector<KV> concat(6, KV::empty());
  EXPECT_TRUE(merge_sorted_runs(concat, 2, 3, 4, AcceptPredicate{}).empty());
}

TEST(TopkMerge, EqualDistancesBreakTiesByGlobalId) {
  // Crafted duplicate-distance runs: the cross-shard merge path produces
  // equal distances from different shards routinely (identical rows land
  // in different shards). Output order must be ascending (distance, id),
  // regardless of which run carried which id.
  std::vector<KV> concat{
      // run 0 (higher ids first within the tie distance's shard)
      KV::make(1.0f, 50), KV::make(2.0f, 90), KV::make(2.0f, 91),
      // run 1
      KV::make(1.0f, 40), KV::make(2.0f, 10), KV::make(3.0f, 20),
      // run 2
      KV::make(1.0f, 45), KV::make(2.0f, 60), KV::empty()};
  const auto merged = merge_sorted_runs(concat, 3, 3, 8, AcceptPredicate{});
  ASSERT_EQ(merged.size(), 8u);
  const std::vector<NodeId> want{40, 45, 50, 10, 60, 90, 91, 20};
  for (std::size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(merged[i].id(), want[i]) << "rank " << i;
  }
  // Ranks 0-2 share distance 1.0 and ranks 3-6 share 2.0: within a tie the
  // ids ascend.
  EXPECT_FLOAT_EQ(merged[0].dist, 1.0f);
  EXPECT_FLOAT_EQ(merged[2].dist, 1.0f);
  EXPECT_FLOAT_EQ(merged[3].dist, 2.0f);
  EXPECT_FLOAT_EQ(merged[6].dist, 2.0f);
}

TEST(TopkMerge, FullyEqualHeadsDedupDeterministically) {
  // The same (distance, id) appearing in several runs — a query routed to
  // overlapping shards — must dedup to one entry and never disturb later
  // ordering, independent of run count or layout.
  std::vector<KV> concat{
      KV::make(1.5f, 7), KV::make(2.5f, 8),
      KV::make(1.5f, 7), KV::make(1.5f, 9)};
  const auto merged = merge_sorted_runs(concat, 2, 2, 4, AcceptPredicate{});
  ASSERT_EQ(merged.size(), 3u);
  EXPECT_EQ(merged[0].id(), 7u);
  EXPECT_EQ(merged[1].id(), 9u);
  EXPECT_EQ(merged[2].id(), 8u);
}

TEST(TopkMerge, TombstonedIdsAreSkippedWithoutBurningSlots) {
  std::vector<KV> concat{
      KV::make(1.0f, 10), KV::make(3.0f, 30), KV::empty(),
      KV::make(2.0f, 20), KV::make(4.0f, 40), KV::make(5.0f, 50)};
  StampedSet dead(64);
  dead.insert(20);
  dead.insert(40);
  const auto merged =
      merge_sorted_runs(concat, 2, 3, 3, AcceptPredicate::deleted_only(&dead));
  ASSERT_EQ(merged.size(), 3u);  // deleted ids did not consume k slots
  EXPECT_EQ(merged[0].id(), 10u);
  EXPECT_EQ(merged[1].id(), 30u);
  EXPECT_EQ(merged[2].id(), 50u);
  // A null predicate keeps the exact legacy behavior.
  const auto plain = merge_sorted_runs(concat, 2, 3, 3, AcceptPredicate{});
  EXPECT_EQ(plain[1].id(), 20u);
  // Ids past the set's size (e.g. rows published after the set was sized)
  // are never treated as deleted.
  StampedSet tiny(15);
  const auto unscreened =
      merge_sorted_runs(concat, 2, 3, 3, AcceptPredicate::deleted_only(&tiny));
  EXPECT_EQ(unscreened[1].id(), 20u);
}

TEST(TopkMerge, MatchesStdSortReference) {
  const std::size_t runs = 4, len = 32;
  std::vector<KV> concat;
  for (std::size_t r = 0; r < runs; ++r) {
    auto run = random_kvs(len, 100 + r);
    std::sort(run.begin(), run.end());
    concat.insert(concat.end(), run.begin(), run.end());
  }
  const auto merged = merge_sorted_runs(concat, runs, len, 10,
                                        AcceptPredicate{});
  auto reference = concat;
  std::sort(reference.begin(), reference.end());
  // No duplicate ids in random data (1M id space) with high probability.
  ASSERT_EQ(merged.size(), 10u);
  for (std::size_t i = 0; i < 10; ++i) {
    EXPECT_EQ(merged[i].id(), reference[i].id());
  }
}

// ---------------- multi_cta.hpp ----------------

TEST(MultiCta, EntryPointsDistinct) {
  const auto& world = testing::tiny_world();
  const auto entries = select_entry_points(world.nsw, 8, 42, 3);
  ASSERT_EQ(entries.size(), 8u);
  EXPECT_EQ(entries[0], world.nsw.entry_point());
  std::set<NodeId> unique(entries.begin(), entries.end());
  EXPECT_EQ(unique.size(), entries.size());
}

TEST(MultiCta, MoreCtasNeverHurtRecallMuch) {
  const auto& world = testing::tiny_world();
  const sim::CostModel cm;
  SearchConfig cfg;
  cfg.topk = 10;
  cfg.candidate_len = 64;
  double recall1 = 0.0, recall4 = 0.0;
  const std::size_t nq = 40;
  for (std::size_t q = 0; q < nq; ++q) {
    auto r1 = multi_cta_search(world.ds, world.nsw, cm, cfg, 1,
                               world.ds.query(q), q, 7);
    auto r4 = multi_cta_search(world.ds, world.nsw, cm, cfg, 4,
                               world.ds.query(q), q, 7);
    recall1 += metrics::recall_at_k(world.ds, q, r1.topk, 10);
    recall4 += metrics::recall_at_k(world.ds, q, r4.topk, 10);
  }
  EXPECT_GT(recall4 / nq, 0.85);
  EXPECT_GT(recall4 / nq, recall1 / nq - 0.05);
}

TEST(MultiCta, ReportsPerCtaCosts) {
  const auto& world = testing::tiny_world();
  const sim::CostModel cm;
  SearchConfig cfg;
  cfg.candidate_len = 64;
  const auto res = multi_cta_search(world.ds, world.nsw, cm, cfg, 4,
                                    world.ds.query(0), 0, 7);
  ASSERT_EQ(res.per_cta_ns.size(), 4u);
  for (double d : res.per_cta_ns) EXPECT_GT(d, 0.0);
  EXPECT_DOUBLE_EQ(
      res.critical_path_ns,
      *std::max_element(res.per_cta_ns.begin(), res.per_cta_ns.end()));
  EXPECT_EQ(res.run_len, 64u);
}

TEST(MultiCta, SharedVisitedPreventsDuplicateScoring) {
  const auto& world = testing::tiny_world();
  const sim::CostModel cm;
  SearchConfig cfg;
  cfg.candidate_len = 64;
  const auto res = multi_cta_search(world.ds, world.nsw, cm, cfg, 4,
                                    world.ds.query(1), 1, 7);
  // Merged topk must have unique ids (dedup would mask double-scoring, so
  // also check totals: scored points <= dataset size).
  std::set<NodeId> ids;
  for (const auto& kv : res.topk) ids.insert(kv.id());
  EXPECT_EQ(ids.size(), res.topk.size());
  EXPECT_LE(res.per_cta_total.scored_points, world.ds.num_base());
}

// ---------------- greedy.hpp ----------------

TEST(Greedy, MatchesSingleCtaResults) {
  const auto& world = testing::tiny_world();
  const sim::CostModel cm;
  SearchConfig cfg;
  cfg.topk = 10;
  cfg.candidate_len = 64;
  cfg.beam_width = 3;  // greedy_search must override this to 1
  const auto g = greedy_search(world.ds, world.nsw, cm, cfg,
                               world.ds.query(2));
  const auto m = multi_cta_search(world.ds, world.nsw, cm,
                                  [&] {
                                    auto c = cfg;
                                    c.beam_width = 1;
                                    return c;
                                  }(),
                                  1, world.ds.query(2), 2, 7);
  ASSERT_EQ(g.topk.size(), m.topk.size());
  for (std::size_t i = 0; i < g.topk.size(); ++i) {
    EXPECT_EQ(g.topk[i].id(), m.topk[i].id());
  }
  EXPECT_FALSE(g.stats.step_distances.empty());
}

}  // namespace
}  // namespace algas::search
