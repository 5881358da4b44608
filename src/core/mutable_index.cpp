#include "core/mutable_index.hpp"

#include <algorithm>
#include <mutex>
#include <stdexcept>

#include "common/binary_io.hpp"
#include "common/thread_pool.hpp"
#include "graph/neighbor_selection.hpp"

namespace algas::core {

void MutationChecker::reader_enter(const char* section) {
  readers_.fetch_add(1, std::memory_order_acq_rel);
  if (writers_.load(std::memory_order_acquire) != 0) {
    readers_.fetch_sub(1, std::memory_order_acq_rel);
    throw std::logic_error(std::string("MutationChecker: reader section '") +
                           section +
                           "' admitted while a writer holds the index");
  }
}

void MutationChecker::reader_exit() {
  readers_.fetch_sub(1, std::memory_order_acq_rel);
}

void MutationChecker::writer_enter(const char* section) {
  if (writers_.fetch_add(1, std::memory_order_acq_rel) != 0) {
    writers_.fetch_sub(1, std::memory_order_acq_rel);
    throw std::logic_error(std::string("MutationChecker: writer section '") +
                           section + "' overlaps another writer");
  }
  if (readers_.load(std::memory_order_acquire) != 0) {
    writers_.fetch_sub(1, std::memory_order_acq_rel);
    throw std::logic_error(std::string("MutationChecker: writer section '") +
                           section + "' admitted while readers are active");
  }
}

void MutationChecker::writer_exit() {
  writers_.fetch_sub(1, std::memory_order_acq_rel);
}

MutableIndex::MutableIndex(Dataset ds, Graph g, BuildConfig cfg)
    : ds_(std::move(ds)), graph_(std::move(g)), cfg_(std::move(cfg)) {
  if (graph_.num_nodes() != ds_.num_base()) {
    throw std::invalid_argument(
        "MutableIndex: graph covers " + std::to_string(graph_.num_nodes()) +
        " nodes but the dataset has " + std::to_string(ds_.num_base()) +
        " rows");
  }
  if (graph_.degree() == 0) {
    throw std::invalid_argument("MutableIndex: degree must be at least 1");
  }
  cfg_.degree = graph_.degree();
  published_ = graph_.num_nodes();
  tombstones_.resize(published_);
}

Dataset MutableIndex::require_empty(Dataset ds) {
  if (ds.num_base() != 0) {
    throw std::invalid_argument(
        "MutableIndex: the empty-start constructor needs a dataset with no "
        "base rows; adopt a built graph instead");
  }
  return ds;
}

MutableIndex::MutableIndex(Dataset ds, BuildConfig cfg)
    : MutableIndex(require_empty(std::move(ds)), Graph(0, cfg.degree), cfg) {}

std::size_t MutableIndex::stage(std::span<const float> rows) {
  WriteSection sec(checker_, "stage");
  // append_base is the epoch hand-off: ground truth drops, the norm table
  // and the encoded store extend with the new rows — all while this writer
  // section holds the index exclusively.
  ds_.append_base(rows);
  return rows.size() / ds_.dim();
}

StagedBatch MutableIndex::prepare_next(std::size_t max_rows) {
  ReadSection sec(checker_, "prepare");
  const std::size_t want =
      max_rows == 0 ? std::max<std::size_t>(1, cfg_.insert_batch) : max_rows;
  const std::size_t count = std::min(want, pending());
  // The offline builder's phase 1: when every row is staged up front, the
  // batch boundaries match build_nsw exactly, which is what makes
  // stream-from-empty byte-identical to it.
  BuildExecutor exec(cfg_.threads);
  return {search_batch(ds_, graph_, cfg_, exec, published_, count), true};
}

InsertReport MutableIndex::apply(StagedBatch& batch) {
  WriteSection sec(checker_, "apply");
  if (!batch.prepared) {
    throw std::logic_error("MutableIndex::apply: batch was not prepared");
  }
  if (batch.first != published_) {
    throw std::logic_error(
        "MutableIndex::apply: batches must apply in stage order (batch "
        "starts at row " +
        std::to_string(batch.first) + ", published is " +
        std::to_string(published_) + ")");
  }
  if (batch.first + batch.count > ds_.num_base()) {
    throw std::logic_error(
        "MutableIndex::apply: batch extends past the staged rows");
  }
  batch.prepared = false;  // consumed: phase 2 links from its beams
  if (batch.count == 0) return {};
  graph_.grow(batch.count);
  tombstones_.resize(graph_.num_nodes());
  BuildExecutor exec(cfg_.threads);
  const InsertReport rep{link_batch(ds_, graph_, cfg_, exec, batch),
                         batch.count};

  // Publish: the entry point recomputes over the published prefix only —
  // staged-but-unlinked rows must never become the entry.
  published_ = graph_.num_nodes();
  graph_.set_entry_point(approximate_medoid(ds_, exec, published_));
  ++epoch_;
  return rep;
}

InsertReport MutableIndex::insert(std::span<const float> rows) {
  InsertReport total;
  stage(rows);
  while (pending() > 0) {
    StagedBatch b = prepare_next();
    total += apply(b);
  }
  return total;
}

bool MutableIndex::remove(NodeId v) {
  WriteSection sec(checker_, "remove");
  if (static_cast<std::size_t>(v) >= published_) {
    throw std::out_of_range("MutableIndex::remove: node " +
                            std::to_string(v) + " is not published (" +
                            std::to_string(published_) + " nodes)");
  }
  return tombstones_.insert(v);
}

CompactReport MutableIndex::compact() {
  WriteSection sec(checker_, "compact");
  if (pending() != 0) {
    throw std::logic_error(
        "MutableIndex::compact: apply staged batches before compacting");
  }
  CompactReport rep;
  rep.dropped = tombstones_.count();
  rep.survivors = published_ - rep.dropped;
  if (rep.dropped == 0) return rep;

  const std::size_t n = published_;
  const std::size_t dim = ds_.dim();
  std::vector<NodeId> remap(n, kInvalidNode);
  NodeId next = 0;
  for (std::size_t v = 0; v < n; ++v) {
    if (!tombstones_.contains(static_cast<NodeId>(v))) {
      remap[v] = next++;
    }
  }
  const std::size_t live_n = next;

  Dataset nds(ds_.name(), dim, ds_.metric());
  {
    std::vector<float> base;
    base.reserve(live_n * dim);
    for (std::size_t v = 0; v < n; ++v) {
      if (remap[v] == kInvalidNode) continue;
      const auto row = ds_.base_vector(v);
      base.insert(base.end(), row.begin(), row.end());
    }
    nds.set_storage(ds_.storage());  // first, so the rows encode once
    nds.set_base(std::move(base));
    nds.set_queries(ds_.queries());
  }

  // Remap every live row. A row that kept all its neighbors copies over
  // verbatim (compacted padding at the tail); a row that lost dead edges
  // re-selects over its live neighbors plus the dead neighbors' live
  // neighbors — the 2-hop patch that keeps routes through reclaimed nodes
  // navigable. Each row writes only its own row of `ng` and reads only
  // graph_, remap and base vectors, so rows run in parallel and the
  // compacted graph is the same at any thread count.
  Graph ng(live_n, graph_.degree());
  BuildExecutor exec(cfg_.threads);
  std::mutex patched_mu;
  exec.parallel_for(n, [&](std::size_t lo, std::size_t hi) {
    std::vector<NodeId> ids;
    std::vector<float> dists;
    LinkScratch scratch;
    std::vector<Candidate>& candidates = scratch.candidates;
    std::size_t patched = 0;
    for (std::size_t v = lo; v < hi; ++v) {
      const NodeId nv = remap[v];
      if (nv == kInvalidNode) continue;
      ids.clear();
      bool lost = false;
      for (NodeId u : graph_.neighbors(static_cast<NodeId>(v))) {
        if (u == kInvalidNode) continue;
        if (remap[u] != kInvalidNode) {
          ids.push_back(remap[u]);
          continue;
        }
        lost = true;
        for (NodeId w : graph_.neighbors(u)) {
          if (w == kInvalidNode || w == static_cast<NodeId>(v)) continue;
          if (remap[w] != kInvalidNode) ids.push_back(remap[w]);
        }
      }
      if (!lost) {
        auto row = ng.mutable_neighbors(nv);
        for (std::size_t i = 0; i < ids.size(); ++i) row[i] = ids[i];
        continue;
      }
      ++patched;
      if (ids.empty()) continue;
      dists.resize(ids.size());
      nds.distance_batch(nds.base_vector(nv), ids, dists,
                         nds.base_query_norm(nv));
      candidates.clear();
      for (std::size_t i = 0; i < ids.size(); ++i) {
        candidates.push_back({dists[i], ids[i], Hint::kUnknown});
      }
      select_neighbors(nds, ng, nv, candidates, scratch);
    }
    std::lock_guard<std::mutex> lock(patched_mu);
    rep.patched += patched;
  });

  if (live_n > 0) ng.set_entry_point(approximate_medoid(nds, exec));

  // Reclamation is the visited table's O(1) clear: the generation bump
  // retires every tombstone; the resize then re-bases the set on the
  // compacted id space.
  tombstones_.clear();
  tombstones_.resize(live_n);
  ds_ = std::move(nds);
  graph_ = std::move(ng);
  published_ = live_n;
  ++epoch_;
  return rep;
}

EngineReport MutableIndex::serve(AlgasConfig cfg,
                                 std::size_t num_queries) const {
  ReadSection sec(checker_, "serve");
  if (published_ == 0) return EngineReport{};
  // Conjoin the caller's predicate (an attribute filter, usually) with
  // this index's tombstones: deleted rows are excluded at the accept step
  // whatever else the caller filters on.
  cfg.search.accept = cfg.search.accept.with_tombstones(&tombstones_);
  AlgasEngine engine(ds_, graph_, cfg);
  return engine.run_closed_loop(num_queries);
}

namespace {
constexpr char kMxMagic[8] = {'A', 'L', 'G', 'A', 'S', 'M', 'X', '1'};
}

void MutableIndex::save(const std::string& path) const {
  ReadSection sec(checker_, "save");
  if (pending() != 0) {
    throw std::logic_error(
        "MutableIndex::save: apply staged batches before snapshotting");
  }
  BinaryWriter w("snapshot", path);
  w.bytes(kMxMagic, sizeof(kMxMagic));
  w.pod(epoch_);
  graph_.write(w);
  w.vec(tombstones_.ids());
  w.finish();
}

MutableIndex MutableIndex::load(const std::string& path, Dataset ds,
                                BuildConfig cfg) {
  BinaryReader r("snapshot", path);
  r.magic(kMxMagic, "not an ALGAS mutable-index snapshot");
  const auto epoch = r.pod<std::uint64_t>("snapshot header");
  Graph g = Graph::read(r);
  const auto ids = r.vec<NodeId>("tombstones");
  for (std::size_t i = 0; i < ids.size(); ++i) {
    if ((i > 0 && ids[i - 1] >= ids[i]) || ids[i] >= g.num_nodes()) {
      r.fail("tombstone ids must be ascending node ids");
    }
  }
  r.finish();
  if (ds.num_base() != g.num_nodes()) {
    throw std::invalid_argument(
        "MutableIndex::load: snapshot covers " +
        std::to_string(g.num_nodes()) + " nodes but the dataset has " +
        std::to_string(ds.num_base()) + " rows");
  }
  MutableIndex idx(std::move(ds), std::move(g), std::move(cfg));
  for (NodeId id : ids) idx.tombstones_.insert(id);
  idx.epoch_ = epoch;
  return idx;
}

}  // namespace algas::core
