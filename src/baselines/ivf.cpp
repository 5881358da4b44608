#include "baselines/ivf.hpp"

#include <algorithm>
#include <cmath>
#include <queue>
#include <stdexcept>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "distance/kernels.hpp"
#include "metrics/recall.hpp"
#include "simgpu/wave_schedule.hpp"

namespace algas::baselines {

namespace {

/// Lloyd iterations of the coarse quantizer's k-means.
constexpr std::size_t kKmeansIters = 8;
/// Lloyd iterations train on at most this many points (subsampled); the
/// final assignment always covers the full dataset.
constexpr std::size_t kTrainLimit = 20000;

/// One batched L2 scan of `point` against all centroids; returns argmin,
/// first index winning ties — the order the scalar scan resolved them.
std::size_t nearest_centroid(std::span<const float> point,
                             const std::vector<float>& centroids,
                             std::size_t dim, std::size_t nlist,
                             std::span<float> scratch) {
  distance_batch_range(Metric::kL2, point,
                       {StorageCodec::kF32, centroids.data(), nullptr, dim}, 0,
                       nlist, scratch);
  std::size_t arg = 0;
  float best = kInfDist;
  for (std::size_t c = 0; c < nlist; ++c) {
    if (scratch[c] < best) {
      best = scratch[c];
      arg = c;
    }
  }
  return arg;
}

/// Assign every base vector to its closest centroid (L2; cosine datasets
/// are normalized so L2 ranking matches).
std::vector<std::size_t> assign_all(const Dataset& ds,
                                    const std::vector<float>& centroids,
                                    std::size_t nlist) {
  const std::size_t n = ds.num_base();
  std::vector<std::size_t> assign(n, 0);
  global_pool().parallel_for(n, [&](std::size_t begin, std::size_t end) {
    std::vector<float> dists(nlist);
    for (std::size_t i = begin; i < end; ++i) {
      assign[i] = nearest_centroid(ds.base_vector(i), centroids, ds.dim(),
                                   nlist, dists);
    }
  });
  return assign;
}

}  // namespace

IvfIndex IvfIndex::build(const Dataset& ds, const IvfBuildConfig& cfg) {
  const std::size_t n = ds.num_base();
  const std::size_t dim = ds.dim();
  if (n == 0) throw std::invalid_argument("empty dataset");
  std::size_t nlist = cfg.nlist;
  if (nlist == 0) {
    nlist = static_cast<std::size_t>(std::sqrt(static_cast<double>(n)));
  }
  nlist = std::clamp<std::size_t>(nlist, 1, n);

  IvfIndex index;
  index.dim_ = dim;

  // Init: distinct random base vectors as seeds.
  Rng rng(cfg.seed);
  std::vector<std::size_t> seeds;
  while (seeds.size() < nlist) {
    const std::size_t cand = rng.next_below(n);
    if (std::find(seeds.begin(), seeds.end(), cand) == seeds.end()) {
      seeds.push_back(cand);
    }
  }
  index.centroids_.resize(nlist * dim);
  for (std::size_t c = 0; c < nlist; ++c) {
    const auto v = ds.base_vector(seeds[c]);
    std::copy(v.begin(), v.end(), index.centroids_.begin() + c * dim);
  }

  // Lloyd iterations on a subsample (FAISS-style training set cap).
  const std::size_t train_n = std::min(n, std::max(kTrainLimit, nlist));
  const std::size_t stride = std::max<std::size_t>(1, n / train_n);
  std::vector<NodeId> train_ids;
  train_ids.reserve(train_n);
  for (std::size_t i = 0; i < n && train_ids.size() < train_n; i += stride) {
    train_ids.push_back(static_cast<NodeId>(i));
  }
  for (std::size_t it = 0; it < kKmeansIters; ++it) {
    std::vector<std::size_t> assign(train_ids.size(), 0);
    global_pool().parallel_for(
        train_ids.size(), [&](std::size_t begin, std::size_t end) {
          std::vector<float> dists(nlist);
          for (std::size_t i = begin; i < end; ++i) {
            assign[i] = nearest_centroid(ds.base_vector(train_ids[i]),
                                         index.centroids_, dim, nlist, dists);
          }
        });
    std::vector<double> sums(nlist * dim, 0.0);
    std::vector<std::size_t> counts(nlist, 0);
    for (std::size_t i = 0; i < train_ids.size(); ++i) {
      const auto v = ds.base_vector(train_ids[i]);
      const std::size_t c = assign[i];
      ++counts[c];
      for (std::size_t d = 0; d < dim; ++d) sums[c * dim + d] += v[d];
    }
    for (std::size_t c = 0; c < nlist; ++c) {
      if (counts[c] == 0) {
        // Re-seed dead centroids from a random point.
        const auto v = ds.base_vector(rng.next_below(n));
        std::copy(v.begin(), v.end(), index.centroids_.begin() + c * dim);
        continue;
      }
      for (std::size_t d = 0; d < dim; ++d) {
        index.centroids_[c * dim + d] = static_cast<float>(
            sums[c * dim + d] / static_cast<double>(counts[c]));
      }
    }
  }

  const auto assign = assign_all(ds, index.centroids_, nlist);
  index.lists_.assign(nlist, {});
  for (std::size_t i = 0; i < n; ++i) {
    index.lists_[assign[i]].push_back(static_cast<NodeId>(i));
  }
  return index;
}

IvfIndex::SearchOut IvfIndex::search(const Dataset& ds,
                                     std::span<const float> query,
                                     std::size_t nprobe,
                                     std::size_t k) const {
  const std::size_t nl = nlist();
  nprobe = std::clamp<std::size_t>(nprobe, 1, nl);

  // Coarse: closest nprobe centroids, scored in one batched L2 scan; the
  // heap consumes the scores in centroid order, as the scalar loop did.
  using CD = std::pair<float, std::size_t>;
  std::priority_queue<CD> coarse;  // max-heap, keep nprobe smallest
  std::vector<float> coarse_dists(nl);
  distance_batch_range(Metric::kL2, query,
                       {StorageCodec::kF32, centroids_.data(), nullptr, dim_},
                       0, nl, coarse_dists);
  for (std::size_t c = 0; c < nl; ++c) {
    const float d = coarse_dists[c];
    if (coarse.size() < nprobe) {
      coarse.emplace(d, c);
    } else if (d < coarse.top().first) {
      coarse.pop();
      coarse.emplace(d, c);
    }
  }

  SearchOut out;
  std::priority_queue<KV> best;  // max-heap via operator<; keep k smallest
  std::vector<float> list_dists;
  while (!coarse.empty()) {
    const std::size_t c = coarse.top().second;
    coarse.pop();
    const auto& ids = lists_[c];
    list_dists.resize(ids.size());
    ds.distance_batch(query, ids, list_dists);
    for (std::size_t i = 0; i < ids.size(); ++i) {
      ++out.scanned;
      const KV kv = KV::make(list_dists[i], ids[i]);
      if (best.size() < k) {
        best.push(kv);
      } else if (kv < best.top()) {
        best.pop();
        best.push(kv);
      }
    }
  }
  out.topk.resize(best.size());
  for (std::size_t i = best.size(); i-- > 0;) {
    out.topk[i] = best.top();
    best.pop();
  }
  return out;
}

std::vector<float> IvfIndex::centroid_distances(
    std::span<const float> query) const {
  std::vector<float> dists(nlist());
  distance_batch_range(Metric::kL2, query,
                       {StorageCodec::kF32, centroids_.data(), nullptr, dim_},
                       0, nlist(), dists);
  return dists;
}

IvfEngine::IvfEngine(const Dataset& ds, IvfConfig cfg)
    : IvfEngine(ds, cfg, IvfIndex::build(ds, cfg.build)) {}

IvfEngine::IvfEngine(const Dataset& ds, IvfConfig cfg, IvfIndex index)
    : ds_(ds), cfg_(std::move(cfg)), index_(std::move(index)) {
  sim::SharedMemoryLayout layout;
  layout.candidate_entries = next_pow2(cfg_.topk);
  layout.expand_entries = 0;
  layout.dim = ds.dim();
  layout.elem_bytes = ds.elem_bytes();
  capacity_ = sim::device_capacity(cfg_.device, layout, 1024);
  if (capacity_ == 0) capacity_ = 1;
}

core::EngineReport IvfEngine::run_closed_loop(std::size_t num_queries) {
  num_queries = std::min(num_queries, ds_.num_queries());
  const sim::CostModel& cm = cfg_.cost;
  sim::Channel channel(cm);
  metrics::Collector collector;

  double clock = 0.0;
  std::size_t q = 0;
  while (q < num_queries) {
    const std::size_t batch_n = std::min(cfg_.batch_size, num_queries - q);
    double cursor = clock + cm.kernel_launch_ns;
    cursor += channel.transfer(cursor, batch_n * ds_.dim() * ds_.elem_bytes(),
                               sim::Xfer::kBulk);
    const double kernel_start = cursor;

    std::vector<sim::CtaTask> tasks;
    std::vector<IvfIndex::SearchOut> outs;
    outs.reserve(batch_n);
    for (std::size_t b = 0; b < batch_n; ++b) {
      auto out = index_.search(ds_, ds_.query(q + b), cfg_.nprobe, cfg_.topk);
      // One CTA per query: coarse scan (f32 centroids) + exhaustive list
      // scan (stored rows, codec width) + k-select.
      const double dur =
          cm.distance_round_ns(ds_.dim(), index_.nlist()) +
          cm.distance_round_ns(ds_.dim(), out.scanned, 32, ds_.elem_bytes()) +
          static_cast<double>(ceil_div(out.scanned, 32)) *
              cm.select_per_wavefront_ns;
      tasks.push_back({b, dur});
      outs.push_back(std::move(out));
    }
    const sim::BatchTiming timing = sim::wave_schedule(
        tasks, batch_n, capacity_, std::vector<double>(batch_n, 0.0));
    collector.add_batch_idle(timing.idle_ns, timing.active_ns);
    const double gpu_end = kernel_start + timing.gpu_end_ns;
    const double done =
        gpu_end +
        channel.transfer(gpu_end,
                         batch_n * cfg_.topk * sim::kListEntryBytes,
                         sim::Xfer::kBulk) +
        cm.host_dispatch_ns;

    for (std::size_t b = 0; b < batch_n; ++b) {
      metrics::QueryRecord rec;
      rec.query_index = q + b;
      rec.arrival_ns = 0.0;
      rec.dispatch_ns = clock;
      rec.done_ns = done;
      rec.steps = outs[b].scanned;
      rec.results = std::move(outs[b].topk);
      collector.add(std::move(rec));
    }
    clock = done;
    q += batch_n;
  }

  core::EngineReport rep;
  rep.summary = collector.summarize();
  rep.storage = ds_.storage();
  const auto total = channel.total();
  rep.pcie_transactions = total.transactions;
  rep.pcie_bytes = total.bytes;
  rep.plan.ok = true;
  rep.plan.n_parallel = 1;
  rep.plan.reason = "IVF-Flat baseline";
  if (ds_.has_ground_truth()) {
    rep.recall = metrics::served_recall(ds_, collector, cfg_.topk);
  }
  rep.collector = std::move(collector);
  return rep;
}

}  // namespace algas::baselines
