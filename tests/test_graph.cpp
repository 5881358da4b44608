#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>

#include "common/env.hpp"
#include "common/node_set.hpp"
#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "graph/neighbor_selection.hpp"
#include "metrics/recall.hpp"
#include "search/greedy.hpp"
#include "search/multi_cta.hpp"
#include "test_util.hpp"

namespace algas {
namespace {

// ---------------- graph.hpp ----------------

TEST(Graph, EmptyRowsArePadding) {
  Graph g(4, 3);
  EXPECT_EQ(g.num_nodes(), 4u);
  EXPECT_EQ(g.degree(), 3u);
  for (NodeId v = 0; v < 4; ++v) {
    EXPECT_EQ(g.valid_degree(v), 0u);
    for (NodeId n : g.neighbors(v)) EXPECT_EQ(n, kInvalidNode);
  }
}

TEST(Graph, MutableNeighborsWrite) {
  Graph g(3, 2);
  auto row = g.mutable_neighbors(1);
  row[0] = 2;
  EXPECT_EQ(g.neighbors(1)[0], 2u);
  EXPECT_EQ(g.valid_degree(1), 1u);
}

TEST(Graph, StatsOnRing) {
  Graph g(5, 2);
  for (NodeId v = 0; v < 5; ++v) {
    auto row = g.mutable_neighbors(v);
    row[0] = (v + 1) % 5;
    row[1] = (v + 4) % 5;
  }
  const auto stats = g.stats();
  EXPECT_DOUBLE_EQ(stats.avg_degree, 2.0);
  EXPECT_EQ(stats.min_degree, 2u);
  EXPECT_EQ(stats.max_degree, 2u);
  EXPECT_DOUBLE_EQ(stats.reachable_fraction, 1.0);
}

TEST(Graph, StatsDetectDisconnection) {
  Graph g(4, 1);
  g.mutable_neighbors(0)[0] = 1;
  g.mutable_neighbors(1)[0] = 0;
  // Nodes 2 and 3 are isolated.
  EXPECT_DOUBLE_EQ(g.stats().reachable_fraction, 0.5);
}

TEST(Graph, SaveLoadRoundTrip) {
  Graph g(6, 4);
  for (NodeId v = 0; v < 6; ++v) {
    g.mutable_neighbors(v)[0] = (v + 1) % 6;
  }
  g.set_entry_point(3);
  const auto path =
      (std::filesystem::temp_directory_path() / "algas_graph.agr").string();
  g.save(path);
  const Graph loaded = Graph::load(path);
  EXPECT_EQ(loaded.num_nodes(), 6u);
  EXPECT_EQ(loaded.degree(), 4u);
  EXPECT_EQ(loaded.entry_point(), 3u);
  EXPECT_EQ(loaded.adjacency(), g.adjacency());
  std::remove(path.c_str());
}

TEST(Graph, LoadRejectsGarbage) {
  const auto path =
      (std::filesystem::temp_directory_path() / "algas_garbage.agr").string();
  {
    std::ofstream out(path);
    out << "this is not a graph";
  }
  EXPECT_THROW(Graph::load(path), std::runtime_error);
  std::remove(path.c_str());
}

TEST(Graph, GrowExtendsWithPaddingAndKeepsEntry) {
  Graph g(3, 2);
  g.mutable_neighbors(0)[0] = 1;
  g.mutable_neighbors(2)[0] = 0;
  g.set_entry_point(2);
  g.grow(2);
  EXPECT_EQ(g.num_nodes(), 5u);
  EXPECT_EQ(g.entry_point(), 2u);
  // Old rows untouched, new rows all padding.
  EXPECT_EQ(g.neighbors(0)[0], 1u);
  EXPECT_EQ(g.neighbors(2)[0], 0u);
  for (NodeId v = 3; v < 5; ++v) {
    for (NodeId n : g.neighbors(v)) EXPECT_EQ(n, kInvalidNode);
  }
}

TEST(Graph, DiversePrefixIsDerivedRowState) {
  // Only select_neighbors records a prefix; every other writer leaves the
  // row unknown, and the byte never reaches a file.
  Graph g(3, 4);
  for (NodeId v = 0; v < 3; ++v) {
    EXPECT_EQ(g.diverse_prefix(v), Graph::kUnknownPrefix);
  }
  g.set_diverse_prefix(0, 3);
  g.set_diverse_prefix(1, 2);
  const Graph copy = g;  // copies carry it: the rows are the same
  EXPECT_EQ(copy.diverse_prefix(0), 3u);
  g.mutable_neighbors(1)[0] = 2;
  EXPECT_EQ(g.diverse_prefix(1), Graph::kUnknownPrefix);
  EXPECT_EQ(g.diverse_prefix(0), 3u);
  g.grow(2);
  EXPECT_EQ(g.diverse_prefix(0), 3u);
  EXPECT_EQ(g.diverse_prefix(4), Graph::kUnknownPrefix);
  // One byte: a prefix too long for it stays unknown.
  g.set_diverse_prefix(2, 300);
  EXPECT_EQ(g.diverse_prefix(2), Graph::kUnknownPrefix);

  const auto path =
      (std::filesystem::temp_directory_path() / "algas_prefix.agr").string();
  g.save(path);
  const Graph loaded = Graph::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(loaded.adjacency(), g.adjacency());
  EXPECT_EQ(loaded.diverse_prefix(0), Graph::kUnknownPrefix);
}

TEST(Graph, EntryPointGuardsDegenerateSizes) {
  // A zero-node graph has no valid entry; the accessor reports
  // kInvalidNode instead of handing searches a bogus node 0.
  Graph empty(0, 4);
  EXPECT_EQ(empty.entry_point(), kInvalidNode);
  Graph one(1, 4);
  EXPECT_EQ(one.entry_point(), 0u);
  one.set_entry_point(0);
  EXPECT_EQ(one.entry_point(), 0u);
}

// Each corruption mode gets its own distinct failure instead of a silent
// bad graph (or a crash in a release build).
TEST(Graph, LoadRejectsEveryCorruptionMode) {
  const auto dir = std::filesystem::temp_directory_path();
  Graph g(4, 2);
  g.mutable_neighbors(0)[0] = 3;
  g.set_entry_point(1);
  const auto good = (dir / "algas_good.agr").string();
  g.save(good);
  std::ifstream in(good, std::ios::binary);
  std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                          std::istreambuf_iterator<char>());
  in.close();
  std::remove(good.c_str());

  auto write_and_expect_throw = [&](std::vector<char> data,
                                    const char* what) {
    const auto path = (dir / "algas_corrupt.agr").string();
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(data.data(), static_cast<std::streamsize>(data.size()));
    out.close();
    EXPECT_THROW(Graph::load(path), std::runtime_error) << what;
    std::remove(path.c_str());
  };

  // Truncated header (cut inside the n/d/entry fields).
  write_and_expect_throw({bytes.begin(), bytes.begin() + 12},
                         "truncated header");
  // Truncated payload (cut inside the adjacency rows).
  write_and_expect_throw({bytes.begin(), bytes.end() - 5},
                         "truncated payload");
  // Trailing bytes after a complete payload.
  {
    auto fat = bytes;
    fat.push_back('x');
    write_and_expect_throw(fat, "trailing bytes");
  }
  // Entry point out of range (n = 4, entry byte patched to 9).
  {
    auto bad = bytes;
    bad[24] = 9;  // u32 entry follows magic(8) + n(8) + d(8)
    write_and_expect_throw(bad, "entry out of range");
  }
  // Neighbor id out of range (valid id patched past n, not kInvalidNode).
  {
    auto bad = bytes;
    bad[28] = 100;  // first adjacency slot, little-endian low byte
    bad[29] = 0;
    bad[30] = 0;
    bad[31] = 0;
    write_and_expect_throw(bad, "neighbor id out of range");
  }
  // Node count that would overflow the adjacency allocation.
  {
    auto bad = bytes;
    std::fill(bad.begin() + 8, bad.begin() + 16, '\xff');
    write_and_expect_throw(bad, "node count overflow");
  }
}

// ---------------- incremental re-selection ----------------

/// 160 gaussian rows of dim 8; rows 120.. repeat rows 0.., so equal
/// distances fall back to the id tie-break.
Dataset selection_ds(Metric metric) {
  constexpr std::size_t kRows = 160, kDim = 8, kCopies = 40;
  Rng rng(4242);
  std::vector<float> rows;
  for (std::size_t i = 0; i < (kRows - kCopies) * kDim; ++i) {
    rows.push_back(rng.next_gaussian());
  }
  rows.insert(rows.end(), rows.begin(),
              rows.begin() + static_cast<std::ptrdiff_t>(kCopies * kDim));
  Dataset ds("selection", kDim, metric);
  ds.set_base(std::move(rows));
  return ds;
}

/// Select row v from `count` candidates taken from a seeded shuffle.
void select_row(const Dataset& ds, Graph& g, NodeId v, std::size_t count,
                LinkScratch& scratch) {
  std::vector<NodeId> ids;
  for (NodeId u = 0; u < ds.num_base(); ++u) {
    if (u != v) ids.push_back(u);
  }
  Rng rng(v + 17);
  for (std::size_t i = ids.size(); i > 1; --i) {
    std::swap(ids[i - 1], ids[rng.next_below(i)]);
  }
  ids.resize(std::min(count, ids.size()));
  std::vector<float> dists(ids.size());
  ds.distance_batch(ds.base_vector(v), ids, dists, ds.base_query_norm(v));
  std::vector<Candidate> candidates;
  for (std::size_t i = 0; i < ids.size(); ++i) {
    candidates.push_back({dists[i], ids[i], Hint::kUnknown});
  }
  select_neighbors(ds, g, v, candidates, scratch);
}

/// 50 seeded backlinks into row v. After every one, row v and its prefix
/// must equal the same link on a copy whose prefix was reset through
/// mutable_neighbors, which re-selects with no hints. Returns the pair
/// distances the hinted and the hint-free links scored.
struct LinkEvals {
  std::size_t hinted = 0;
  std::size_t plain = 0;
};

void expect_links_match_hint_free(const Dataset& ds, Graph& g, NodeId v,
                                  const std::string& name,
                                  LinkEvals* evals = nullptr) {
  LinkScratch hinted, plain;
  Rng rng(v * 31 + g.degree());
  for (int step = 0; step < 50; ++step) {
    // A new neighbor: linking a member again changes nothing.
    NodeId u = v;
    while (u == v || std::find(g.neighbors(v).begin(), g.neighbors(v).end(),
                               u) != g.neighbors(v).end()) {
      u = static_cast<NodeId>(rng.next_below(ds.num_base()));
    }
    Graph ref = g;
    const std::vector<NodeId> before(ref.neighbors(v).begin(),
                                     ref.neighbors(v).end());
    std::copy(before.begin(), before.end(),
              ref.mutable_neighbors(v).begin());
    link(ds, g, v, u, hinted);
    link(ds, ref, v, u, plain);
    const auto got = g.neighbors(v), want = ref.neighbors(v);
    ASSERT_TRUE(std::equal(got.begin(), got.end(), want.begin(), want.end()))
        << name << " step " << step;
    ASSERT_EQ(g.diverse_prefix(v), ref.diverse_prefix(v))
        << name << " step " << step;
  }
  if (evals != nullptr) *evals = {hinted.evals, plain.evals};
}

TEST(IncrementalSelection, LinksMatchHintFreeReselection) {
  // Every codec scores a row's distances from the row's own side, so
  // quantized rows record and trust a prefix like f32 rows.
  for (const StorageCodec codec :
       {StorageCodec::kF32, StorageCodec::kF16, StorageCodec::kInt8}) {
    for (const Metric metric :
         {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
      Dataset ds = selection_ds(metric);
      ds.set_storage(codec);
      for (const std::size_t degree : {4u, 16u, 33u}) {
        const std::string name = std::string(metric_name(metric)) + " " +
                                 storage_codec_name(codec) +
                                 " degree=" + std::to_string(degree);
        Graph g(ds.num_base(), degree);
        LinkScratch scratch;
        // A duplicated row and its copy both sit among the candidates.
        select_row(ds, g, 5, 4 * degree, scratch);
        ASSERT_NE(g.diverse_prefix(5), Graph::kUnknownPrefix) << name;
        ASSERT_LE(g.diverse_prefix(5), g.valid_degree(5)) << name;
        LinkEvals evals;
        expect_links_match_hint_free(ds, g, 5, name, &evals);
        EXPECT_LT(evals.hinted, evals.plain) << name;
      }
    }
  }
}

TEST(IncrementalSelection, PartialRowAppendsWithoutAPrefix) {
  const Dataset ds = selection_ds(Metric::kL2);
  Graph g(ds.num_base(), 16);
  LinkScratch scratch;
  select_row(ds, g, 9, 5, scratch);
  ASSERT_EQ(g.valid_degree(9), 5u);
  EXPECT_LT(g.diverse_prefix(9), 5u);  // kept, then backfilled
  const auto row = g.neighbors(9);
  NodeId u = 10;
  while (std::find(row.begin(), row.end(), u) != row.end()) ++u;
  link(ds, g, 9, u, scratch);
  EXPECT_EQ(g.valid_degree(9), 6u);
  EXPECT_EQ(g.diverse_prefix(9), Graph::kUnknownPrefix);
  // The row fills by appending, then re-selects hint-free once and
  // records its prefix again.
  expect_links_match_hint_free(ds, g, 9, "partial");
  EXPECT_NE(g.diverse_prefix(9), Graph::kUnknownPrefix);
}

// ---------------- builders ----------------

class BuilderTest : public ::testing::TestWithParam<GraphKind> {};

TEST_P(BuilderTest, DegreeBoundsAndNoSelfLoops) {
  const auto& world = testing::tiny_world();
  const Graph& g = GetParam() == GraphKind::kNsw ? world.nsw : world.cagra;
  EXPECT_EQ(g.num_nodes(), world.ds.num_base());
  EXPECT_EQ(g.degree(), 16u);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::set<NodeId> seen;
    for (NodeId n : g.neighbors(v)) {
      if (n == kInvalidNode) continue;
      EXPECT_NE(n, v) << "self loop at " << v;
      EXPECT_LT(n, g.num_nodes());
      EXPECT_TRUE(seen.insert(n).second) << "duplicate edge at " << v;
    }
  }
}

TEST_P(BuilderTest, MostlyConnectedAndWellFilled) {
  const auto& world = testing::tiny_world();
  const Graph& g = GetParam() == GraphKind::kNsw ? world.nsw : world.cagra;
  const auto stats = g.stats();
  EXPECT_GT(stats.avg_degree, 8.0);
  EXPECT_GT(stats.reachable_fraction, 0.98);
}

TEST_P(BuilderTest, NeighborsAreActuallyClose) {
  // A graph edge should land among the closer part of the dataset: the mean
  // neighbor distance must be far below the mean random-pair distance.
  const auto& world = testing::tiny_world();
  const Dataset& ds = world.ds;
  const Graph& g = GetParam() == GraphKind::kNsw ? world.nsw : world.cagra;
  double edge_dist = 0.0;
  std::size_t edges = 0;
  for (NodeId v = 0; v < g.num_nodes(); v += 37) {
    for (NodeId n : g.neighbors(v)) {
      if (n == kInvalidNode) continue;
      edge_dist += distance(ds.metric(), ds.base_vector(v), ds.base_vector(n));
      ++edges;
    }
  }
  double rand_dist = 0.0;
  std::size_t pairs = 0;
  for (NodeId v = 0; v + 997 < g.num_nodes(); v += 37) {
    rand_dist +=
        distance(ds.metric(), ds.base_vector(v), ds.base_vector(v + 997));
    ++pairs;
  }
  EXPECT_LT(edge_dist / static_cast<double>(edges),
            0.5 * rand_dist / static_cast<double>(pairs));
}

INSTANTIATE_TEST_SUITE_P(Kinds, BuilderTest,
                         ::testing::Values(GraphKind::kNsw,
                                           GraphKind::kCagra),
                         [](const auto& param_info) {
                           return graph_kind_name(param_info.param);
                         });

TEST(Builders, SingleNodeGraph) {
  Dataset ds("one", 4, Metric::kL2);
  ds.set_base({0.0f, 0.0f, 0.0f, 0.0f});
  BuildConfig cfg;
  cfg.degree = 4;
  for (GraphKind kind : {GraphKind::kNsw, GraphKind::kCagra}) {
    const Graph g = build_graph(kind, ds, cfg).graph;
    EXPECT_EQ(g.num_nodes(), 1u);
    EXPECT_EQ(g.valid_degree(0), 0u);
  }
}

TEST(Builders, FewerPointsThanDegree) {
  // n < degree: every node can link every other node, nothing out of range.
  Dataset ds("few", 4, Metric::kL2);
  ds.set_base({0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 0, 0, 2, 2, 2, 2,
               0, 0, 0, 1, 1, 1, 0, 0});
  BuildConfig cfg;
  cfg.degree = 16;
  for (GraphKind kind : {GraphKind::kNsw, GraphKind::kCagra}) {
    const Graph g = build_graph(kind, ds, cfg).graph;
    EXPECT_EQ(g.num_nodes(), 6u);
    ASSERT_LT(g.entry_point(), 6u);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_GT(g.valid_degree(v), 0u);
      for (NodeId n : g.neighbors(v)) {
        if (n == kInvalidNode) continue;
        EXPECT_LT(n, g.num_nodes());
        EXPECT_NE(n, v);
      }
    }
  }
}

TEST(Builders, EmptyDatasetBuildsEmptyGraph) {
  Dataset ds("none", 4, Metric::kL2);
  BuildConfig cfg;
  cfg.degree = 8;
  for (GraphKind kind : {GraphKind::kNsw, GraphKind::kCagra}) {
    const Graph g = build_graph(kind, ds, cfg).graph;
    EXPECT_EQ(g.num_nodes(), 0u);
    EXPECT_EQ(g.entry_point(), kInvalidNode);
  }
}

TEST(Builders, DegreeZeroIsRejected) {
  // A graph without neighbour slots is unreachable past its entry point,
  // and the loaders refuse one, so no builder may write it.
  Dataset ds("few", 2, Metric::kL2);
  ds.set_base({0.0f, 0.0f, 1.0f, 0.0f, 0.0f, 1.0f});
  BuildConfig cfg;
  cfg.degree = 0;
  for (GraphKind kind : {GraphKind::kNsw, GraphKind::kCagra}) {
    EXPECT_THROW(build_graph(kind, ds, cfg), std::invalid_argument);
  }
}

TEST(Builders, CacheKeyMovesWithTheScoringOrder) {
  // Graphs cached before distance() summed in the warp lane order hold
  // other edges, so their v3 names must not be read, and neither must v4
  // quantized names, cached before link scored backlinks from the row
  // they join: a truncated file planted under an old name must neither be
  // loaded nor throw. f32 graphs kept their bytes, and their v4 names.
  const auto dir = std::filesystem::temp_directory_path() / "algas_cache_key";
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  const std::string before = cache_dir();
  ::setenv("ALGAS_CACHE_DIR", dir.c_str(), 1);

  const auto& world = testing::tiny_world();
  Dataset f16 = world.ds;
  f16.set_storage(StorageCodec::kF16);
  BuildConfig cfg;
  cfg.degree = 8;
  cfg.ef_construction = 16;
  const std::string stem = "_NSW_" + world.ds.name() + "_n" +
                           std::to_string(world.ds.num_base()) + "_d8_ef16";
  struct Case {
    const Dataset& ds;
    std::string stale, current;
  };
  const Case cases[] = {
      {world.ds, "graph_v3" + stem + ".agr", "graph_v4" + stem + ".agr"},
      {f16, "graph_v4" + stem + "_sf16.agr", "graph_v5" + stem + "_sf16.agr"},
  };
  for (const Case& c : cases) {
    std::ofstream(dir / c.stale) << "ALG";  // truncated
    const BuildReport fresh = load_or_build_graph(GraphKind::kNsw, c.ds, cfg);
    EXPECT_FALSE(fresh.cache_hit) << c.stale;
    EXPECT_TRUE(std::filesystem::exists(dir / c.current)) << c.current;
    EXPECT_TRUE(load_or_build_graph(GraphKind::kNsw, c.ds, cfg).cache_hit)
        << c.current;
  }

  ::setenv("ALGAS_CACHE_DIR", before.c_str(), 1);  // same cache_dir() as before
  std::filesystem::remove_all(dir);
}

TEST(Builders, BeamSearchFindsExactNearest) {
  const auto& world = testing::tiny_world();
  // Search for base vectors themselves: with a reasonable beam the point
  // itself must come back first in nearly every case.
  std::size_t exact = 0;
  StampedSet visited(world.nsw.num_nodes());
  for (NodeId v = 100; v < 120; ++v) {
    const auto found =
        build_beam_search(world.ds, world.nsw, world.ds.base_vector(v), 48,
                          world.nsw.entry_point(), visited);
    ASSERT_FALSE(found.empty());
    if (found.front().id() == v) {
      EXPECT_FLOAT_EQ(found.front().dist, 0.0f);
      ++exact;
    }
  }
  EXPECT_GE(exact, 18u);
}

TEST(Builders, BeamSearchIsGreedySearchAtTheSameLength) {
  // With ef a power of two and at least the degree, the build search and
  // the query path's greedy search are one computation: the same list, the
  // same distance bits and the same scored count.
  const sim::CostModel cm;
  for (const Metric metric : {Metric::kL2, Metric::kCosine}) {
    const auto& world = testing::tiny_world(metric);
    StampedSet visited(world.ds.num_base());
    for (const Graph* g : {&world.nsw, &world.cagra}) {
      for (const std::size_t ef : {16u, 64u}) {
        search::SearchConfig cfg;
        cfg.topk = ef;
        cfg.candidate_len = ef;
        cfg.beam_width = 1;
        const auto check = [&](std::span<const float> query) {
          std::size_t scored = 0;
          const auto found = build_beam_search(world.ds, *g, query, ef,
                                               g->entry_point(), visited,
                                               &scored);
          const auto ref =
              search::greedy_search(world.ds, *g, cm, cfg, query);
          ASSERT_EQ(found.size(), ref.topk.size());
          for (std::size_t i = 0; i < found.size(); ++i) {
            EXPECT_EQ(found[i].id(), ref.topk[i].id()) << "position " << i;
            EXPECT_EQ(found[i].dist, ref.topk[i].dist) << "position " << i;
            EXPECT_FALSE(found[i].checked());
          }
          EXPECT_EQ(scored, ref.stats.scored_points);
        };
        for (NodeId v = 0; v < world.ds.num_base(); v += 97) {
          check(world.ds.base_vector(v));
        }
        for (std::size_t q = 0; q < world.ds.num_queries(); q += 13) {
          check(world.ds.query(q));
        }
      }
    }
  }
}

TEST(Builders, BeamSearchBreaksDistanceTiesById) {
  // 48 rows on 12 grid points (each point 4 times) and complete graphs whose
  // rows list the other nodes in descending or shuffled id order: distances
  // tie everywhere, and the search must return the brute-force best ef by
  // (distance, id) whatever order the neighbours arrive in.
  constexpr std::size_t kRows = 48;
  Dataset ds("ties", 2, Metric::kL2);
  std::vector<float> rows;
  for (std::size_t i = 0; i < kRows; ++i) {
    rows.push_back(static_cast<float>(i % 4));
    rows.push_back(static_cast<float>((i / 4) % 3));
  }
  ds.set_base(rows);
  Graph descending(kRows, kRows - 1);
  Graph shuffled(kRows, kRows - 1);
  Rng rng(48);
  for (NodeId v = 0; v < kRows; ++v) {
    std::vector<NodeId> others;
    for (NodeId u = kRows; u-- > 0;) {
      if (u != v) others.push_back(u);
    }
    std::copy(others.begin(), others.end(),
              descending.mutable_neighbors(v).begin());
    for (std::size_t i = others.size(); i > 1; --i) {
      std::swap(others[i - 1], others[rng.next_below(i)]);
    }
    std::copy(others.begin(), others.end(),
              shuffled.mutable_neighbors(v).begin());
  }
  StampedSet visited(kRows);
  const std::size_t efs[] = {1, 5, 10, 24, kRows};
  for (const std::vector<float>& query :
       {std::vector<float>{1.0f, 1.0f}, std::vector<float>{1.5f, 1.0f},
        std::vector<float>{0.5f, 0.5f}}) {
    std::vector<KV> brute;
    for (NodeId u = 0; u < kRows; ++u) {
      brute.push_back(KV::make(ds.score(query, u), u));
    }
    std::sort(brute.begin(), brute.end());
    for (const Graph* g : {&descending, &shuffled}) {
      for (const std::size_t ef : efs) {
        for (const NodeId entry : {0u, 17u, 47u}) {
          const auto found =
              build_beam_search(ds, *g, query, ef, entry, visited);
          ASSERT_EQ(found.size(), ef);
          for (std::size_t i = 0; i < ef; ++i) {
            EXPECT_EQ(found[i].id(), brute[i].id())
                << "ef " << ef << " entry " << entry << " position " << i;
            EXPECT_EQ(found[i].dist, brute[i].dist);
          }
        }
      }
    }
  }
}

TEST(Builders, BeamSearchShorterThanTheDegree) {
  // ef below the degree: one expansion yields more fresh neighbours than
  // the list holds, so the search keeps the best ef of each round and
  // still returns ef distinct entries in ascending order.
  const auto& world = testing::tiny_world();
  const NodeId entry = world.nsw.entry_point();
  StampedSet visited(world.nsw.num_nodes());
  for (const std::size_t ef : {1u, 3u, 5u, 12u}) {
    ASSERT_GT(world.nsw.valid_degree(entry), ef);
    for (std::size_t q = 0; q < world.ds.num_queries(); q += 17) {
      const auto query = world.ds.query(q);
      const auto found =
          build_beam_search(world.ds, world.nsw, query, ef, entry, visited);
      ASSERT_EQ(found.size(), ef);
      EXPECT_TRUE(std::is_sorted(found.begin(), found.end()));
      std::set<NodeId> ids;
      for (const KV& e : found) {
        EXPECT_FALSE(e.checked());
        EXPECT_EQ(e.dist, world.ds.score(query, e.id()));
        ids.insert(e.id());
      }
      EXPECT_EQ(ids.size(), ef);
    }
  }
}

TEST(Builders, ApproximateMedoidIsCentral) {
  const auto& world = testing::tiny_world();
  BuildExecutor serial(1);
  const NodeId medoid = approximate_medoid(world.ds, serial);
  ASSERT_LT(medoid, world.ds.num_base());
  // The medoid must be closer to the centroid than 95% of points; spot
  // check against a sample.
  std::vector<float> centroid(world.ds.dim(), 0.0f);
  for (std::size_t i = 0; i < world.ds.num_base(); ++i) {
    const auto v = world.ds.base_vector(i);
    for (std::size_t d = 0; d < centroid.size(); ++d) centroid[d] += v[d];
  }
  for (auto& c : centroid) c /= static_cast<float>(world.ds.num_base());
  const float medoid_d =
      distance(world.ds.metric(), centroid, world.ds.base_vector(medoid));
  std::size_t closer = 0;
  for (NodeId v = 0; v < world.ds.num_base(); v += 11) {
    if (distance(world.ds.metric(), centroid, world.ds.base_vector(v)) <
        medoid_d) {
      ++closer;
    }
  }
  EXPECT_EQ(closer, 0u);
}

TEST(BatchedConstruction, QualityRobustToBatchSize) {
  const auto& world = testing::tiny_world();
  BuildConfig cfg;
  cfg.degree = 16;
  cfg.ef_construction = 48;
  cfg.insert_batch = 256;
  const BuildReport result = build_graph(GraphKind::kNsw, world.ds, cfg);
  const auto stats = result.graph.stats();
  EXPECT_GT(stats.avg_degree, 8.0);
  EXPECT_GT(stats.reachable_fraction, 0.98);
  EXPECT_GT(result.batches, 1u);
  EXPECT_GT(result.scored_points, 0u);

  // Search quality within a small margin of the default-batch build.
  const sim::CostModel cm;
  search::SearchConfig scfg;
  scfg.topk = 10;
  scfg.candidate_len = 64;
  double small_recall = 0.0, default_recall = 0.0;
  const std::size_t nq = 50;
  for (std::size_t q = 0; q < nq; ++q) {
    const auto rg = search::multi_cta_search(world.ds, result.graph, cm,
                                             scfg, 2, world.ds.query(q), q, 5);
    const auto rs = search::multi_cta_search(world.ds, world.nsw, cm, scfg,
                                             2, world.ds.query(q), q, 5);
    small_recall += metrics::recall_at_k(world.ds, q, rg.topk, 10);
    default_recall += metrics::recall_at_k(world.ds, q, rs.topk, 10);
  }
  EXPECT_GT(small_recall / nq, default_recall / nq - 0.05);
}

TEST(BatchedConstruction, BatchedBuildIsFasterThanSerial) {
  // The GANNS claim: batched GPU construction beats one-CTA construction
  // by roughly the device's concurrency (in modeled virtual time).
  const auto& world = testing::tiny_world();
  BuildConfig cfg;
  cfg.degree = 16;
  cfg.insert_batch = 512;
  const BuildReport result = build_graph(GraphKind::kNsw, world.ds, cfg);
  EXPECT_GT(result.speedup(), 10.0);
  EXPECT_LT(result.virtual_build_ns, result.serial_build_ns);
  EXPECT_GT(result.wall_build_s, 0.0);
}

TEST(BatchedConstruction, SmallerBatchesCostMoreLaunches) {
  const auto& world = testing::tiny_world();
  BuildConfig small_cfg;
  small_cfg.degree = 16;
  small_cfg.insert_batch = 128;
  BuildConfig big_cfg = small_cfg;
  big_cfg.insert_batch = 1024;
  const BuildReport small_b = build_graph(GraphKind::kNsw, world.ds, small_cfg);
  const BuildReport big_b = build_graph(GraphKind::kNsw, world.ds, big_cfg);
  EXPECT_GT(small_b.batches, big_b.batches);
}

TEST(BatchedConstruction, SingleNodeDataset) {
  Dataset ds("one", 4, Metric::kL2);
  ds.set_base({0.0f, 0.0f, 0.0f, 0.0f});
  const BuildReport result = build_graph(GraphKind::kNsw, ds, BuildConfig{});
  EXPECT_EQ(result.graph.num_nodes(), 1u);
}

// ---------------- deterministic parallel construction ----------------

class ByteIdentityTest : public ::testing::TestWithParam<GraphKind> {};

TEST_P(ByteIdentityTest, ParallelBuildMatchesSerialBuild) {
  // The acceptance bar for thread-pooled construction: the graph is a pure
  // function of (dataset, config). Any thread count must reproduce the
  // threads=1 result byte for byte. insert_batch=384 gives an uneven tail
  // (2000 % 384 != 0) so partial batches are exercised too.
  const auto& world = testing::tiny_world();
  BuildConfig cfg;
  cfg.degree = 16;
  cfg.ef_construction = 48;
  cfg.insert_batch = 384;
  cfg.threads = 1;
  const Graph serial = build_graph(GetParam(), world.ds, cfg).graph;
  for (std::size_t threads : {2u, 8u}) {
    cfg.threads = threads;
    const Graph parallel = build_graph(GetParam(), world.ds, cfg).graph;
    EXPECT_EQ(parallel.entry_point(), serial.entry_point())
        << "threads=" << threads;
    EXPECT_EQ(parallel.adjacency(), serial.adjacency())
        << "threads=" << threads;
  }
}

INSTANTIATE_TEST_SUITE_P(Kinds, ByteIdentityTest,
                         ::testing::Values(GraphKind::kNsw,
                                           GraphKind::kCagra),
                         [](const auto& param_info) {
                           return graph_kind_name(param_info.param);
                         });

TEST(ByteIdentity, CosineMetricAndScoredCounts) {
  // Cosine exercises the lazily-built norm table (warmed before forking);
  // the distance-eval ledger must also be thread-count invariant because
  // it feeds the virtual-time model.
  const auto& world = testing::tiny_world(Metric::kCosine);
  BuildConfig cfg;
  cfg.degree = 16;
  cfg.ef_construction = 48;
  cfg.insert_batch = 384;
  cfg.threads = 1;
  const BuildReport serial = build_graph(GraphKind::kNsw, world.ds, cfg);
  cfg.threads = 4;
  const BuildReport parallel = build_graph(GraphKind::kNsw, world.ds, cfg);
  EXPECT_EQ(parallel.graph.adjacency(), serial.graph.adjacency());
  EXPECT_EQ(parallel.scored_points, serial.scored_points);
  EXPECT_EQ(parallel.batches, serial.batches);
  EXPECT_DOUBLE_EQ(parallel.virtual_build_ns, serial.virtual_build_ns);
}

// The pre-BuildReport shims (gpu_build_nsw, BuildReport->Graph conversion)
// were removed: build_graph(GraphKind::kNsw, ds, cfg) is the one entry
// point, and call sites read `.graph` explicitly. -Wdeprecated-declarations
// is always on, so a reintroduced shim with in-tree users cannot merge.

TEST(Builders, GraphKindNames) {
  EXPECT_EQ(graph_kind_name(GraphKind::kNsw), "NSW");
  EXPECT_EQ(graph_kind_name(GraphKind::kCagra), "CAGRA");
}

}  // namespace
}  // namespace algas
