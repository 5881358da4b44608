// Mutable serving index — streaming insert/delete under live queries.
//
// The deterministic batch-at-a-time builder is the unit of mutability: a
// "live" insert batch is exactly an offline build batch applied against the
// serving graph's frozen prefix. The lifecycle splits the builder's two
// phases (graph/nsw_builder.hpp) across the reader/writer boundary:
//
//   stage()    writer   append rows to the dataset, which extends its
//                       norm table and encoded store and drops ground
//                       truth while this writer holds exclusive access —
//                       the insert half of the epoch hand-off. The graph
//                       does not grow yet, so the serving view stays frozen.
//   prepare()  READER   phase 1 (search_batch): per-row beam searches
//                       against the frozen prefix [0, published), fanned
//                       out on the BuildExecutor. Runs concurrently with
//                       serve() — both only read published state.
//   apply()    writer   phase 2 (link_batch): grow the graph and apply the
//                       batch's links on the BuildExecutor, each row's in
//                       insertion-id order (the byte-identity guarantee:
//                       the published graph is independent of thread count
//                       and of how inserts interleaved with queries),
//                       recompute the entry point over the published
//                       prefix, bump the epoch.
//
// Deletion tombstones a node (a StampedSet, common/node_set.hpp): it keeps
// routing traversals but the accept step excludes it from results.
// compact() reclaims: live rows remap down in id order, rows that lost dead
// neighbors re-select over their live 2-hop neighborhood, and the tombstone
// epoch bump retires every mark in O(1) — the same generation-stamped set
// the search uses as its per-query visited table.
//
// MutationChecker is the dynamic half of the single-writer story — the
// ProtocolChecker discipline (core/protocol_checker.hpp) extended to the
// streaming path: writer sections (stage/apply/remove/compact) must be
// exclusive; reader sections (serve/prepare) may overlap each other but
// never a writer. Violations throw immediately. The static half is the
// ALGAS_GUARDED_BY_EPOCH(MutableIndex) owner lists below, enforced by
// tools/algas_lint.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <span>
#include <string>

#include "common/node_set.hpp"
#include "common/ownership.hpp"
#include "core/engine.hpp"
#include "dataset/dataset.hpp"
#include "graph/builder.hpp"
#include "graph/graph.hpp"
#include "graph/nsw_builder.hpp"

namespace algas::core {

/// Dynamic single-writer checker for the streaming path. Not a lock: like
/// ProtocolChecker it VERIFIES the discipline (and fails fast on a
/// violation) rather than serializing callers — the protocol itself must
/// keep writers exclusive.
class MutationChecker {
 public:
  MutationChecker() = default;
  /// Movable so index factories (MutableIndex::load) can return by value.
  /// Moving while any section is active would already be a protocol
  /// violation, so the moved-to checker simply starts idle.
  MutationChecker(MutationChecker&&) noexcept {}
  MutationChecker& operator=(MutationChecker&&) noexcept { return *this; }

  void reader_enter(const char* section);
  void reader_exit();
  void writer_enter(const char* section);
  void writer_exit();

 private:
  std::atomic<int> readers_{0};
  std::atomic<int> writers_{0};
};

class ReadSection {
 public:
  ReadSection(MutationChecker& c, const char* section) : c_(c) {
    c_.reader_enter(section);
  }
  ~ReadSection() { c_.reader_exit(); }
  ReadSection(const ReadSection&) = delete;
  ReadSection& operator=(const ReadSection&) = delete;

 private:
  MutationChecker& c_;
};

class WriteSection {
 public:
  WriteSection(MutationChecker& c, const char* section) : c_(c) {
    c_.writer_enter(section);
  }
  ~WriteSection() { c_.writer_exit(); }
  WriteSection(const WriteSection&) = delete;
  WriteSection& operator=(const WriteSection&) = delete;

 private:
  MutationChecker& c_;
};

/// One live batch mid-flight between prepare() and apply(). Opaque to
/// callers; holds the phase-1 beams for rows [first, first+count) and
/// whether apply() may still consume them.
struct StagedBatch : InsertBatch {
  bool prepared = false;
};

/// The streamed batches' construction ledger plus the rows they inserted.
/// One insert() from empty reports build_nsw's ledger for the same rows.
struct InsertReport : BuildCost {
  std::size_t inserted = 0;

  InsertReport& operator+=(const InsertReport& o) {
    BuildCost::operator+=(o);
    inserted += o.inserted;
    return *this;
  }
};

struct CompactReport {
  std::size_t dropped = 0;   ///< tombstoned rows reclaimed
  std::size_t survivors = 0; ///< live rows after the remap
  std::size_t patched = 0;   ///< rows re-selected after losing dead edges
};

class MutableIndex {
 public:
  /// Adopt an existing dataset + graph (e.g. from build_graph). The graph
  /// must cover exactly the dataset's rows; its degree overrides
  /// cfg.degree so streamed batches extend the same structure.
  MutableIndex(Dataset ds, Graph g, BuildConfig cfg);
  /// Start empty: a dataset with no base rows yet (queries are fine) and a
  /// zero-node graph of cfg.degree. The first insert() bootstraps exactly
  /// like the offline builder's first batch.
  MutableIndex(Dataset ds, BuildConfig cfg);

  const Dataset& dataset() const { return ds_; }
  const Graph& graph() const { return graph_; }
  const StampedSet& tombstones() const { return tombstones_; }
  const BuildConfig& config() const { return cfg_; }

  /// Rows the serving graph covers (== graph().num_nodes()).
  std::size_t published() const { return published_; }
  /// Staged rows awaiting prepare/apply.
  std::size_t pending() const { return ds_.num_base() - published_; }
  /// Published and not tombstoned — what a query can actually return.
  std::size_t live() const { return published_ - tombstones_.count(); }
  /// Bumped on every publish (apply/compact); readers key caches off it.
  std::uint64_t epoch() const { return epoch_; }

  /// Writer: append rows (a multiple of dim floats) and reconcile every
  /// dataset cache under exclusive access. Returns rows staged.
  std::size_t stage(std::span<const float> rows);

  /// Reader: run phase 1 for the next `max_rows` staged rows (0 = one
  /// cfg.insert_batch). Safe concurrently with serve() — the searches only
  /// read the frozen prefix. Returns an empty batch when nothing pends.
  StagedBatch prepare_next(std::size_t max_rows = 0);

  /// Writer: phase 2 for a prepared batch — grow, link (each row's links
  /// in insertion-id order), recompute the entry point, publish. Batches
  /// must apply in stage order (batch.first == published()).
  InsertReport apply(StagedBatch& batch);

  /// Convenience: stage + {prepare_next, apply} until drained. With all
  /// rows inserted in one call and the same BuildConfig, an index streamed
  /// from empty is byte-identical to build_nsw over the final dataset.
  InsertReport insert(std::span<const float> rows);

  /// Writer: tombstone a published node. Returns false if already deleted.
  /// The node keeps routing searches; it just stops surfacing in results.
  bool remove(NodeId v);

  /// Writer: reclaim tombstoned rows. Live rows remap down in id order
  /// (order-preserving), rows that lost a dead neighbor re-select over
  /// their live neighbors plus the dead neighbors' live neighbors (2-hop
  /// patch, on the BuildExecutor: each row writes only its own row, so the
  /// result is the same at any thread count), the entry point recomputes,
  /// and the tombstone generation bump retires every mark in O(1).
  /// Requires no pending staged rows.
  CompactReport compact();

  /// Reader: serve the dataset's first `num_queries` queries through an
  /// AlgasEngine over the published graph, with this index's tombstones
  /// wired into the accept step. Concurrent with prepare_next(). Returns
  /// an empty report while nothing is published.
  EngineReport serve(AlgasConfig cfg, std::size_t num_queries) const;

  /// Snapshot: graph + tombstones + epoch ("ALGASMX1"). The dataset
  /// serializes separately (it already has a format); load() re-pairs
  /// them and validates the sizes agree. Requires no pending rows.
  void save(const std::string& path) const;
  static MutableIndex load(const std::string& path, Dataset ds,
                           BuildConfig cfg);

 private:
  static Dataset require_empty(Dataset ds);

  /// Published state: written only inside WriteSection-guarded members of
  /// this class (the static owner list matching MutationChecker's dynamic
  /// rules).
  Dataset ds_ ALGAS_GUARDED_BY_EPOCH(MutableIndex);
  Graph graph_ ALGAS_GUARDED_BY_EPOCH(MutableIndex);
  StampedSet tombstones_ ALGAS_GUARDED_BY_EPOCH(MutableIndex);
  BuildConfig cfg_;
  std::size_t published_ ALGAS_GUARDED_BY_EPOCH(MutableIndex) = 0;
  std::uint64_t epoch_ ALGAS_GUARDED_BY_EPOCH(MutableIndex) = 0;
  mutable MutationChecker checker_;
};

}  // namespace algas::core
