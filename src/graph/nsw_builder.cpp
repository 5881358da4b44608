#include "graph/nsw_builder.hpp"

#include <algorithm>
#include <atomic>
#include <span>
#include <vector>

#include "common/node_set.hpp"
#include "common/thread_pool.hpp"
#include "graph/neighbor_selection.hpp"
#include "simgpu/wave_schedule.hpp"

namespace algas {

namespace {

/// Full-speed CTA capacity for a construction kernel holding an
/// ef_construction-sized candidate list per block.
std::size_t construction_capacity(const BuildConfig& cfg, std::size_t dim) {
  sim::SharedMemoryLayout layout;
  layout.candidate_entries = next_pow2(cfg.ef_construction);
  layout.expand_entries = next_pow2(cfg.degree);
  layout.dim = dim;
  const std::size_t capacity = sim::device_capacity(cfg.device, layout, 1024);
  return std::max<std::size_t>(1, capacity);
}

/// Modeled cost of one insertion whose search scored `scored` points:
/// distance work plus the candidate-list maintenance that accompanies it.
double insert_cost_ns(const BuildConfig& cfg, std::size_t dim,
                      std::size_t scored) {
  const sim::CostModel& cm = cfg.cost;
  const std::size_t rounds =
      std::max<std::size_t>(1,
                            scored / std::max<std::size_t>(1, cfg.degree));
  const std::size_t ef_pow2 = next_pow2(cfg.ef_construction);
  return cm.distance_round_ns(dim, scored) +
         static_cast<double>(rounds) *
             (cm.bitonic_sort_ns(next_pow2(cfg.degree)) +
              cm.bitonic_merge_ns(2 * ef_pow2)) +
         // Link application: the select-neighbors heuristic evaluates
         // roughly degree^2 / 2 pairwise distances per inserted node.
         cm.distance_round_ns(dim, cfg.degree * cfg.degree / 2);
}

}  // namespace

InsertBatch search_batch(const Dataset& ds, const Graph& g,
                         const BuildConfig& cfg, BuildExecutor& exec,
                         std::size_t first, std::size_t count) {
  InsertBatch b{first, count, {}, {}};
  b.found.resize(count);
  b.scored.resize(count);
  if (count == 0) return b;

  // Each insertion writes only its own found/scored slot, so the phase is
  // embarrassingly parallel and its results are independent of the
  // chunking (the byte-identity guarantee).
  if (first == 0) {
    // Bootstrap batch: no prefix graph exists; points score each other
    // exhaustively (the GPU does this as a brute-force tile kernel — here
    // one batched range scan per inserted point).
    exec.parallel_for(count - 1, [&](std::size_t lo, std::size_t hi) {
      std::vector<float> tile;
      for (std::size_t v = lo + 1; v < hi + 1; ++v) {
        auto& list = b.found[v];
        tile.resize(v);
        ds.distance_batch_range(ds.base_vector(v), 0, v, tile);
        list.reserve(v);
        for (std::size_t u = 0; u < v; ++u) {
          list.push_back(KV::make(tile[u], static_cast<NodeId>(u)));
        }
        std::sort(list.begin(), list.end());
        if (list.size() > cfg.ef_construction) {
          list.resize(cfg.ef_construction);
        }
        b.scored[v] = v;
      }
    });
    return b;
  }
  // The beam width follows the dataset's row count (staged rows included),
  // not the prefix: a stream that stages every row up front searches
  // exactly like the offline build.
  const std::size_t m = std::min(cfg.degree, ds.num_base() - 1);
  const std::size_t ef = std::max(cfg.ef_construction, m);
  exec.parallel_for(count, [&](std::size_t lo, std::size_t hi) {
    StampedSet visited(g.num_nodes());
    for (std::size_t i = lo; i < hi; ++i) {
      b.found[i] = build_beam_search(ds, g, ds.base_vector(first + i), ef, 0,
                                     visited, &b.scored[i]);
    }
  });
  return b;
}

BuildCost link_batch(const Dataset& ds, Graph& g, const BuildConfig& cfg,
                     BuildExecutor& exec, const InsertBatch& batch) {
  BuildCost cost;
  if (batch.count == 0) return cost;
  const std::size_t begin = batch.first;
  const std::size_t end = begin + batch.count;

  // Cost accounting stays serial and in insertion-id order so the modeled
  // times match the serial schedule exactly. The bootstrap's row 0 has no
  // search to pay for.
  std::vector<sim::CtaTask> tasks;
  for (std::size_t i = begin == 0 ? 1 : 0; i < batch.count; ++i) {
    const double d = insert_cost_ns(cfg, ds.dim(), batch.scored[i]);
    tasks.push_back({tasks.size(), d});
    cost.scored_points += batch.scored[i];
    cost.serial_build_ns += d;
  }
  const std::size_t capacity = construction_capacity(cfg, ds.dim());
  const std::vector<double> no_merge(tasks.size(), 0.0);
  const sim::BatchTiming timing =
      sim::wave_schedule(tasks, tasks.size(), capacity, no_merge);
  cost.virtual_build_ns = cfg.cost.kernel_launch_ns + timing.gpu_end_ns;
  cost.serial_build_ns += cfg.cost.kernel_launch_ns;
  cost.batches = 1;

  // Step 2a: every row v of the batch selects its neighbors from its beam
  // and records its backlinks (its new neighbors) before any link can
  // change row v. A beam holds only rows below the batch (in the bootstrap
  // batch, rows below v), so select_neighbors(v) writes row v alone and the
  // rows run in parallel. Row 0 of the bootstrap has an empty beam.
  //
  // Both steps count the pair distances they score per chunk; integer sums
  // do not depend on the chunking, so link_evals is the same at any thread
  // count.
  const std::size_t degree = g.degree();
  std::vector<NodeId> back(batch.count * degree, kInvalidNode);
  std::atomic<std::size_t> link_evals{0};
  exec.parallel_for(batch.count, [&](std::size_t lo, std::size_t hi) {
    LinkScratch scratch;
    for (std::size_t i = lo; i < hi; ++i) {
      if (batch.found[i].empty()) continue;
      const auto v = static_cast<NodeId>(begin + i);
      scratch.candidates.clear();
      for (const KV& e : batch.found[i]) {
        scratch.candidates.push_back({e.dist, e.id(), Hint::kUnknown});
      }
      select_neighbors(ds, g, v, scratch.candidates, scratch);
      const auto row = g.neighbors(v);
      std::copy(row.begin(), row.end(), back.begin() + i * degree);
    }
    link_evals += scratch.evals;
  });

  // Step 2b: link(w, v) reads and writes row w alone (scoring v from w's
  // side), and every link into w comes from a row above w, so the target
  // rows run in parallel. Each chunk owns a contiguous range of targets
  // (the rows below the batch, or the bootstrap batch's own rows) and walks
  // the backlinks in insertion order, so each row receives its links in the
  // serial fold's order: the graph is the same bytes at any thread count.
  const std::size_t target_rows = begin == 0 ? end : begin;
  exec.parallel_for(target_rows, [&](std::size_t lo, std::size_t hi) {
    LinkScratch scratch;
    for (std::size_t i = 0; i < batch.count; ++i) {
      const auto v = static_cast<NodeId>(begin + i);
      for (std::size_t j = i * degree;
           j < (i + 1) * degree && back[j] != kInvalidNode; ++j) {
        if (back[j] >= lo && back[j] < hi) {
          link(ds, g, back[j], v, scratch);
        }
      }
    }
    link_evals += scratch.evals;
  });
  cost.link_evals = link_evals;
  return cost;
}

BuildReport build_nsw(const Dataset& ds, const BuildConfig& cfg) {
  const std::size_t n = ds.num_base();
  BuildReport out;
  out.graph = Graph(n, cfg.degree);
  if (n == 0) return out;

  BuildExecutor exec(cfg.threads);
  const std::size_t batch = std::max<std::size_t>(1, cfg.insert_batch);
  for (std::size_t first = 0; first < n; first += batch) {
    InsertBatch b = search_batch(ds, out.graph, cfg, exec, first,
                                 std::min(batch, n - first));
    out += link_batch(ds, out.graph, cfg, exec, b);
  }
  out.graph.set_entry_point(approximate_medoid(ds, exec));
  return out;
}

}  // namespace algas
