// Seeded byte-mutation fuzzing of every loader: `.agr` graphs, ALGASMX1
// snapshots, `.abin` datasets with and without the ALGASAT1 trailer, and
// fvecs/ivecs. Each mutant of a small valid file must either throw the
// loader's documented error, or load into an object that its own writer
// and loader round-trip unchanged. A crash, a sanitizer report or any other
// exception (std::bad_alloc from a length nobody checked) fails the test.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/mutable_index.hpp"
#include "dataset/io.hpp"
#include "graph/graph.hpp"

namespace algas {
namespace {

using Bytes = std::vector<char>;

std::string temp_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

Bytes read_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_bytes(const std::string& path, const Bytes& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One length (or index) field of a valid file: where it sits and how wide
/// it is, so the fuzzer can set it to huge values.
struct Field {
  std::size_t offset;
  std::size_t width;  // 4 or 8
};

/// A format under test: a small valid file, its length fields, and a check
/// that loads a file and, when it loads, round-trips the object through its
/// own writer. `invalid_argument_ok` marks loaders whose API documents
/// std::invalid_argument (the snapshot's dataset pairing).
struct Format {
  std::string name;
  Bytes valid;
  std::vector<Field> fields;
  std::function<void(const std::string&)> load_and_round_trip;
  bool invalid_argument_ok = false;
};

void expect_same_graph(const Graph& a, const Graph& b) {
  EXPECT_EQ(a.num_nodes(), b.num_nodes());
  EXPECT_EQ(a.degree(), b.degree());
  EXPECT_EQ(a.entry_point(), b.entry_point());
  EXPECT_EQ(a.adjacency(), b.adjacency());
}

void expect_same_dataset(const Dataset& a, const Dataset& b) {
  EXPECT_EQ(a.name(), b.name());
  EXPECT_EQ(a.dim(), b.dim());
  EXPECT_EQ(a.metric(), b.metric());
  EXPECT_EQ(a.base(), b.base());
  EXPECT_EQ(a.queries(), b.queries());
  EXPECT_EQ(a.gt_k(), b.gt_k());
  EXPECT_EQ(a.ground_truth_flat(), b.ground_truth_flat());
  EXPECT_EQ(a.categories(), b.categories());
  EXPECT_EQ(a.timestamps(), b.timestamps());
}

/// Loads `mutant` through `f`; returns false (and records a failure) when
/// the loader threw anything but its documented error.
bool rejects_or_round_trips(const Format& f, const Bytes& mutant,
                            const std::string& what) {
  const std::string path = temp_path("algas_fuzz_" + f.name);
  write_bytes(path, mutant);
  try {
    f.load_and_round_trip(path);
  } catch (const std::runtime_error& e) {
    if (std::string(e.what()).find(path) == std::string::npos) {
      ADD_FAILURE() << f.name << " " << what
                    << ": error does not name the file: " << e.what();
      return false;
    }
  } catch (const std::invalid_argument& e) {
    if (!f.invalid_argument_ok) {
      ADD_FAILURE() << f.name << " " << what
                    << ": undocumented invalid_argument: " << e.what();
      return false;
    }
  } catch (const std::exception& e) {
    ADD_FAILURE() << f.name << " " << what
                  << ": threw neither runtime_error nor a documented "
                     "invalid_argument: "
                  << e.what();
    return false;
  }
  if (::testing::Test::HasFailure()) {
    ADD_FAILURE() << f.name << " " << what << ": loaded but no round trip";
    return false;
  }
  return true;
}

void put(Bytes& bytes, const Field& field, std::uint64_t value) {
  std::memcpy(bytes.data() + field.offset, &value, field.width);
}

Graph small_graph() {
  Graph g(6, 3);
  for (NodeId v = 0; v < 6; ++v) {
    g.mutable_neighbors(v)[0] = (v + 1) % 6;
    g.mutable_neighbors(v)[1] = (v + 3) % 6;
  }
  g.set_entry_point(2);
  return g;
}

Dataset small_dataset(bool attributes) {
  Dataset ds("fz", 2, Metric::kL2);
  ds.set_base({0.0f, 0.0f, 1.0f, 0.0f, 0.0f, 1.0f, 1.0f, 1.0f, 0.5f, 0.5f,
               2.0f, 2.0f});
  ds.set_queries({0.9f, 0.9f, 0.1f, 0.0f});
  ds.set_ground_truth({3, 4, 0, 1}, 2);
  if (attributes) {
    ds.set_attributes({1, 2, 1, 2, 1, 2}, {10, 20, 30, 40, 50, 60});
  }
  return ds;
}

/// The header fields of a graph section starting at `at`: n, degree, entry.
std::vector<Field> graph_fields(std::size_t at) {
  return {{at + 8, 8}, {at + 16, 8}, {at + 24, 4}};
}

/// Every format's small valid file, its length fields and its loader.
std::vector<Format> formats() {
  std::vector<Format> out;
  const std::string scratch = temp_path("algas_fuzz_round_trip");

  {
    Format f;
    f.name = "agr";
    small_graph().save(scratch);
    f.valid = read_bytes(scratch);
    f.fields = graph_fields(0);
    f.load_and_round_trip = [scratch](const std::string& path) {
      const Graph g = Graph::load(path);
      g.stats();  // walks every edge from the entry point
      g.save(scratch);
      expect_same_graph(Graph::load(scratch), g);
    };
    out.push_back(f);
  }
  {
    Format f;
    f.name = "snapshot";
    const Dataset ds = small_dataset(false);
    BuildConfig cfg;
    cfg.degree = 3;
    cfg.threads = 1;
    core::MutableIndex idx(ds, small_graph(), cfg);
    idx.remove(1);
    idx.remove(4);
    idx.save(scratch);
    f.valid = read_bytes(scratch);
    f.fields = graph_fields(16);
    f.fields.push_back({16 + 28 + 6 * 3 * sizeof(NodeId), 8});  // tombstones
    f.invalid_argument_ok = true;
    f.load_and_round_trip = [scratch, ds, cfg](const std::string& path) {
      const auto loaded = core::MutableIndex::load(path, ds, cfg);
      loaded.graph().stats();
      loaded.save(scratch);
      const auto again = core::MutableIndex::load(scratch, ds, cfg);
      expect_same_graph(again.graph(), loaded.graph());
      EXPECT_EQ(again.tombstones().ids(), loaded.tombstones().ids());
      EXPECT_EQ(again.epoch(), loaded.epoch());
    };
    out.push_back(f);
  }
  for (const bool attributes : {false, true}) {
    Format f;
    f.name = attributes ? "abin-trailer" : "abin";
    const Dataset ds = small_dataset(attributes);
    save_dataset(ds, scratch);
    f.valid = read_bytes(scratch);
    // magic, name length + name, dim, metric, gt_k, then three vecs.
    std::size_t at = 8;
    f.fields.push_back({at, 8});
    at += 8 + ds.name().size();
    f.fields.push_back({at, 8});       // dim
    f.fields.push_back({at + 8, 4});   // metric
    f.fields.push_back({at + 12, 8});  // gt_k
    at += 20;
    auto vec_field = [&](std::size_t elems, std::size_t size) {
      f.fields.push_back({at, 8});
      at += 8 + elems * size;
    };
    vec_field(ds.base().size(), sizeof(float));
    vec_field(ds.queries().size(), sizeof(float));
    vec_field(ds.ground_truth_flat().size(), sizeof(NodeId));
    if (attributes) {
      at += 8;  // ALGASAT1
      vec_field(ds.num_base(), sizeof(std::uint32_t));
      vec_field(ds.num_base(), sizeof(std::uint32_t));
    }
    EXPECT_EQ(at, f.valid.size());
    f.load_and_round_trip = [scratch](const std::string& path) {
      const Dataset loaded = load_dataset(path);
      loaded.describe();
      save_dataset(loaded, scratch);
      expect_same_dataset(load_dataset(scratch), loaded);
    };
    out.push_back(f);
  }
  {
    Format f;
    f.name = "fvecs";
    write_fvecs(scratch, {1.0f, 2.0f, 3.0f, -4.0f, 0.5f, 6.0f}, 2);
    f.valid = read_bytes(scratch);
    f.fields = {{0, 4}, {12, 4}, {24, 4}};
    f.load_and_round_trip = [scratch](const std::string& path) {
      std::size_t dim = 0;
      const auto rows = read_fvecs(path, dim);
      if (rows.empty()) return;
      write_fvecs(scratch, rows, dim);
      std::size_t dim2 = 0;
      EXPECT_EQ(read_fvecs(scratch, dim2), rows);
      EXPECT_EQ(dim2, dim);
    };
    out.push_back(f);
  }
  {
    Format f;
    f.name = "ivecs";
    write_ivecs(scratch, {7, 8, 9, 10, 11, 12}, 3);
    f.valid = read_bytes(scratch);
    f.fields = {{0, 4}, {16, 4}};
    f.load_and_round_trip = [scratch](const std::string& path) {
      std::size_t dim = 0;
      const auto rows = read_ivecs(path, dim);
      if (rows.empty()) return;
      write_ivecs(scratch, rows, dim);
      std::size_t dim2 = 0;
      EXPECT_EQ(read_ivecs(scratch, dim2), rows);
      EXPECT_EQ(dim2, dim);
    };
    out.push_back(f);
  }
  return out;
}

TEST(LoaderFuzz, EveryMutantThrowsOrRoundTrips) {
  // Huge values for every length field: past the file, past NodeId, past
  // half the address space, and all ones.
  const std::vector<std::uint64_t> huge8{
      0xffffffffULL, 0x100000000ULL, std::uint64_t{1} << 40,
      std::uint64_t{1} << 62, std::uint64_t{1} << 63,
      std::numeric_limits<std::uint64_t>::max()};
  const std::vector<std::uint64_t> huge4{0x7fffffffULL, 0x40000000ULL,
                                         100000000ULL, 0xffffffffULL};
  constexpr std::size_t kFlips = 300;
  Rng rng(20241019);

  for (const Format& f : formats()) {
    ASSERT_TRUE(rejects_or_round_trips(f, f.valid, "unmutated"));
    for (std::size_t len = 0; len < f.valid.size(); ++len) {
      const Bytes cut(f.valid.begin(), f.valid.begin() + len);
      if (!rejects_or_round_trips(f, cut, "cut to " + std::to_string(len))) {
        return;
      }
    }
    for (std::size_t i = 0; i < kFlips; ++i) {
      Bytes mutant = f.valid;
      const std::size_t flips = 1 + rng.next_below(3);
      std::string what = "flip";
      for (std::size_t k = 0; k < flips; ++k) {
        const std::size_t pos = rng.next_below(mutant.size());
        const auto mask = static_cast<char>(1 + rng.next_below(255));
        mutant[pos] = static_cast<char>(mutant[pos] ^ mask);
        what += " @" + std::to_string(pos);
      }
      if (!rejects_or_round_trips(f, mutant, what)) return;
    }
    for (const Field& field : f.fields) {
      for (const std::uint64_t v : field.width == 8 ? huge8 : huge4) {
        Bytes mutant = f.valid;
        put(mutant, field, v);
        const std::string what = "field @" + std::to_string(field.offset) +
                                 " = " + std::to_string(v);
        if (!rejects_or_round_trips(f, mutant, what)) return;
      }
    }
    std::remove(temp_path("algas_fuzz_" + f.name).c_str());
  }
  std::remove(temp_path("algas_fuzz_round_trip").c_str());
}

/// Loads `bytes` as `load` does and expects a std::runtime_error that names
/// the file and contains `defect`, raised before the declared size is
/// allocated.
void expect_rejected(const Bytes& bytes,
                     const std::function<void(const std::string&)>& load,
                     const std::string& defect) {
  const std::string path = temp_path("algas_fuzz_probe");
  write_bytes(path, bytes);
  try {
    load(path);
    ADD_FAILURE() << "loaded a file that should fail with: " << defect;
  } catch (const std::runtime_error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(path), std::string::npos) << what;
    EXPECT_NE(what.find(defect), std::string::npos) << what;
  }
  std::remove(path.c_str());
}

Bytes agr_header(std::uint64_t n, std::uint64_t d, std::uint32_t entry) {
  Bytes out(28);
  std::memcpy(out.data(), "ALGASGR1", 8);
  std::memcpy(out.data() + 8, &n, 8);
  std::memcpy(out.data() + 16, &d, 8);
  std::memcpy(out.data() + 24, &entry, 4);
  return out;
}

TEST(LoaderFuzz, ProbeHeadersRejectedBeforeAllocating) {
  const auto graph = [](const std::string& p) { Graph::load(p); };
  const auto fvecs = [](const std::string& p) {
    std::size_t dim = 0;
    read_fvecs(p, dim);
  };
  // A 28-byte header that declares 4,000,000 x 32 neighbours.
  expect_rejected(agr_header(4000000, 32, 0), graph, "adjacency declares");
  // 400,000,000 nodes of degree 0: an edgeless graph, never a valid one.
  expect_rejected(agr_header(400000000, 0, 0), graph, "nodes of degree 0");
  // Beyond the address space: (2^32 - 1) x 2^20 neighbours.
  expect_rejected(agr_header(0xffffffffULL, std::uint64_t{1} << 20, 0), graph,
                  "adjacency declares");
  // A 4-byte fvecs file that declares dim 100,000,000, then INT32_MAX.
  for (const std::int32_t dim : {100000000, 0x7fffffff}) {
    Bytes bytes(4);
    std::memcpy(bytes.data(), &dim, 4);
    expect_rejected(bytes, fvecs, "row 0 declares");
  }
}

}  // namespace
}  // namespace algas
