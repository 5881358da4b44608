#include "core/sharded_engine.hpp"

#include <algorithm>
#include <limits>
#include <queue>
#include <stdexcept>
#include <string>
#include <utility>

#include "metrics/recall.hpp"
#include "search/topk_merge.hpp"
#include "simgpu/channel.hpp"
#include "simgpu/simulation.hpp"
#include "simgpu/sim_group.hpp"
#include "simgpu/trace.hpp"

namespace algas::core {

namespace {

/// Seed of the fanout router's per-shard k-means.
constexpr std::uint64_t kRouterSeed = 11;

/// Scatter-side state of one in-flight query: which shards owe a run, the
/// runs received so far (indexed by the shard's position in the route, so
/// the concatenation order is shard-ascending regardless of completion
/// order), and the merged record the shard records accumulate into.
struct GatherState {
  std::vector<std::size_t> route;  ///< shards probed, ascending
  std::size_t received = 0;
  /// Arrival, deadline and priority come from the arrival. Each shard
  /// record then takes dispatch_ns to its min and gpu_done_ns to its max,
  /// adds its device work, and takes the disposition to the best outcome
  /// (min ordinal): one shard serving is enough for the merged query to
  /// serve — shards that shed or evicted just contribute an empty run.
  metrics::QueryRecord merged;
  std::vector<std::vector<KV>> runs;  ///< one slot per routed shard
};

/// The serial host merge thread. Queries become ready when their last shard
/// run lands; the actor merges ONE query per busy window, charging
/// CostModel::host_topk_merge_ns(runs, k) and back-pressuring the rest —
/// cross-shard merging is host work, not free glue. The ready queue orders
/// by (ready time, push sequence); pushes happen in deterministic
/// simulation order, so the merge order — and therefore the final
/// collector — is reproducible bit for bit.
class MergeActor final : public sim::Actor {
 public:
  MergeActor(const sim::CostModel& cm, std::size_t topk,
             std::vector<GatherState>& gathers, metrics::Collector& out)
      : cm_(cm), topk_(topk), gathers_(gathers), out_(out) {}

  void set_tracer(sim::Tracer* t, int pid, int tid) {
    trace_ = t;
    trace_pid_ = pid;
    trace_tid_ = tid;
  }

  void push_ready(std::size_t query, SimTime when) {
    ready_.push(Ready{when, seq_++, query});
  }

  void step(sim::Simulation& sim) override {
    if (ready_.empty()) return;
    // An early wake (a query became ready mid-merge) just re-arms the
    // timer: the merge thread is serial, busy until busy_until_.
    if (sim.now() < busy_until_) {
      sim.schedule(this, busy_until_);
      return;
    }
    const Ready top = ready_.top();
    if (top.ready_ns > sim.now()) {
      sim.schedule(this, top.ready_ns);
      return;
    }
    ready_.pop();

    GatherState& g = gathers_[top.query];
    const std::size_t n_runs = g.runs.size();
    std::vector<KV> concat(n_runs * topk_, KV::empty());
    for (std::size_t r = 0; r < n_runs; ++r) {
      std::copy(g.runs[r].begin(), g.runs[r].end(),
                concat.begin() + static_cast<std::ptrdiff_t>(r * topk_));
    }
    const double elapsed = cm_.host_topk_merge_ns(n_runs, topk_);

    metrics::QueryRecord rec = std::move(g.merged);
    rec.slot = n_runs;  // repurposed: shard runs merged (== fanout)
    rec.done_ns = sim.now() + elapsed;
    if (rec.served()) {
      // Shards that shed/evicted left their run slot empty (KV::empty
      // padding); the merge tolerates that, so one serving shard suffices.
      // Runs carry global ids and were already filtered per shard — the
      // merge itself needs no further predicate.
      rec.results = search::merge_sorted_runs(concat, n_runs, topk_, topk_,
                                              search::AcceptPredicate{});
    }
    out_.add(std::move(rec));

    if (trace_ != nullptr) {
      sim::TraceArgs args;
      args.add("query", static_cast<std::uint64_t>(top.query));
      args.add("runs", static_cast<std::uint64_t>(n_runs));
      trace_->complete(trace_pid_, trace_tid_,
                       "merge q" + std::to_string(top.query), sim.now(),
                       elapsed, std::move(args), "merge");
    }

    busy_until_ = sim.now() + elapsed;
    busy_ns_ += elapsed;
    ++merges_;
    g.runs.clear();
    g.runs.shrink_to_fit();
    if (!ready_.empty()) sim.schedule(this, busy_until_);
  }

  const char* name() const override { return "shard-merge"; }

  double busy_ns() const { return busy_ns_; }
  std::size_t merges() const { return merges_; }

 private:
  struct Ready {
    SimTime ready_ns;
    std::uint64_t seq;
    std::size_t query;
    bool operator>(const Ready& o) const {
      if (ready_ns != o.ready_ns) return ready_ns > o.ready_ns;
      return seq > o.seq;
    }
  };

  const sim::CostModel& cm_;
  std::size_t topk_;
  std::vector<GatherState>& gathers_;
  metrics::Collector& out_;
  std::priority_queue<Ready, std::vector<Ready>, std::greater<Ready>> ready_;
  std::uint64_t seq_ = 0;
  SimTime busy_until_ = 0.0;
  double busy_ns_ = 0.0;
  std::size_t merges_ = 0;
  sim::Tracer* trace_ = nullptr;
  int trace_pid_ = 0;
  int trace_tid_ = 0;
};

}  // namespace

ShardedEngine::ShardedEngine(const Dataset& ds, ShardedConfig cfg)
    : ds_(ds), cfg_(std::move(cfg)), part_(ds.num_base(), cfg_.shards) {
  if (cfg_.base.search.accept.has_tombstones()) {
    throw std::invalid_argument(
        "ShardedEngine: tombstones carry global ids and cannot filter "
        "shard-local searches; sharded serving requires an immutable view");
  }
  const std::size_t k = part_.shards();
  selective_ = cfg_.fanout >= 1 && cfg_.fanout < k;
  if (cfg_.base.search.accept.has_filter()) {
    // Precompute accepted-row counts per shard: route() consults them to
    // fall back to full fanout when every affinity-selected shard is
    // filter-empty.
    shard_accepted_.resize(k);
    for (std::size_t s = 0; s < k; ++s) {
      const auto r = part_.range(s);
      shard_accepted_[s] =
          cfg_.base.search.accept.accepted_in_range(r.begin, r.end);
    }
  }

  shard_ds_.reserve(k);
  graphs_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    shard_ds_.push_back(make_shard_dataset(ds_, part_, s));
    graphs_.push_back(
        build_graph(cfg_.graph_kind, shard_ds_[s], cfg_.build).graph);
  }
  // Engines after the dataset/graph vectors are final: AlgasEngine holds
  // references into them.
  engines_.reserve(k);
  for (std::size_t s = 0; s < k; ++s) {
    AlgasConfig shard_cfg = cfg_.base;
    // Each shard searches 1/K of the base set, so ~1/K of the candidate
    // depth keeps the merged union's quality while cutting per-shard search
    // work ~K-fold: this is where the scale-out throughput comes from.
    // normalize_config re-clamps to a power of two >= topk and >= the graph
    // degree; K = 1 keeps the length, and byte identity.
    shard_cfg.search.candidate_len = search::scaled_candidate_len(
        cfg_.base.search.candidate_len, cfg_.base.search.topk, k);
    if (shard_cfg.search.accept.has_filter()) {
      // The filter bitset is indexed by global id; shard s sees local ids,
      // so give it an offset view at its contiguous range start.
      shard_cfg.search.accept =
          cfg_.base.search.accept.with_offset(part_.range(s).begin);
    }
    if (k > 1 && shard_cfg.checker != nullptr) {
      // One checker cannot watch K interleaved runs (per-run reset, single
      // drain hook) — substitute a private instance per shard.
      shard_checks_.push_back(std::make_unique<sim::SimCheck>());
      shard_cfg.checker = shard_checks_.back().get();
    }
    engines_.push_back(std::make_unique<AlgasEngine>(
        shard_ds_[s], graphs_[s], std::move(shard_cfg)));
  }
  if (selective_) {
    baselines::IvfBuildConfig rcfg;
    rcfg.nlist = cfg_.router_centroids;
    rcfg.seed = kRouterSeed;
    routers_.reserve(k);
    for (std::size_t s = 0; s < k; ++s) {
      routers_.push_back(baselines::IvfIndex::build(shard_ds_[s], rcfg));
    }
  }
}

std::vector<std::size_t> ShardedEngine::route(std::size_t query_index) const {
  const std::size_t k = part_.shards();
  std::vector<std::size_t> out;
  if (!selective_) {
    out.resize(k);
    for (std::size_t s = 0; s < k; ++s) out[s] = s;
    return out;
  }
  // Shard affinity = min distance over the shard's router centroids; the
  // (affinity, shard) pair sort makes equal affinities resolve by shard id.
  std::vector<std::pair<float, std::size_t>> aff(k);
  for (std::size_t s = 0; s < k; ++s) {
    const auto dists = routers_[s].centroid_distances(ds_.query(query_index));
    float best = kInfDist;
    for (const float d : dists) best = std::min(best, d);
    aff[s] = {best, s};
  }
  std::sort(aff.begin(), aff.end());
  out.reserve(cfg_.fanout);
  for (std::size_t i = 0; i < cfg_.fanout; ++i) out.push_back(aff[i].second);
  std::sort(out.begin(), out.end());
  if (!shard_accepted_.empty()) {
    // Filter-aware fallback: centroid affinity is computed on vectors, not
    // attributes, so a selective route can land exclusively on shards the
    // filter empties out. If no selected shard holds an accepted row while
    // some other shard does, scatter to all — a guaranteed-empty answer is
    // worse than losing the fanout saving for this query.
    std::size_t selected_accepted = 0;
    for (const std::size_t s : out) selected_accepted += shard_accepted_[s];
    if (selected_accepted == 0) {
      std::size_t total_accepted = 0;
      for (const std::size_t c : shard_accepted_) total_accepted += c;
      if (total_accepted > 0) {
        out.resize(k);
        for (std::size_t s = 0; s < k; ++s) out[s] = s;
      }
    }
  }
  return out;
}

ShardedReport ShardedEngine::run_closed_loop(std::size_t num_queries) {
  num_queries = std::min(num_queries, ds_.num_queries());
  std::vector<PendingQuery> arrivals;
  arrivals.reserve(num_queries);
  for (std::size_t i = 0; i < num_queries; ++i) arrivals.push_back({i, 0.0});
  return run(arrivals);
}

ShardedReport ShardedEngine::run(const std::vector<PendingQuery>& arrivals) {
  const std::size_t k = part_.shards();

  if (k == 1) {
    // Degenerate single-shard path: the plain engine, untouched — no bus,
    // no gather, no label suffix. This is the K=1 byte-identity guarantee.
    ShardedReport rep;
    rep.merged = engines_[0]->run(arrivals);
    // The shard dataset dropped the ground truth (global ids are only
    // meaningful here, where shard0 IS the full range) — rescore recall
    // against the original dataset.
    if (ds_.has_ground_truth()) {
      rep.merged.recall = metrics::served_recall(
          ds_, rep.merged.collector, cfg_.base.search.topk);
    }
    rep.shards.push_back(rep.merged);
    rep.shard_records.merge(rep.merged.collector);
    rep.mean_fanout = 1.0;
    return rep;
  }

  // Routes + gather slots, keyed by query index (hence the uniqueness
  // requirement: two in-flight copies of one query would collide).
  std::vector<GatherState> gathers(ds_.num_queries());
  std::vector<std::vector<PendingQuery>> shard_arrivals(k);
  std::size_t routed_total = 0;
  for (const PendingQuery& a : arrivals) {
    if (a.query_index >= ds_.num_queries()) {
      throw std::invalid_argument("ShardedEngine: query index out of range");
    }
    GatherState& g = gathers[a.query_index];
    if (!g.route.empty()) {
      throw std::invalid_argument(
          "ShardedEngine: duplicate query index " +
          std::to_string(a.query_index) + " in arrivals");
    }
    g.route = route(a.query_index);
    g.merged.query_index = a.query_index;
    g.merged.arrival_ns = a.arrival_ns;
    g.merged.dispatch_ns = std::numeric_limits<SimTime>::infinity();
    g.merged.deadline_ns = a.deadline_ns;
    g.merged.priority = a.priority;
    g.merged.disposition = metrics::Disposition::kEvicted;
    g.runs.resize(g.route.size());
    routed_total += g.route.size();
    for (const std::size_t s : g.route) shard_arrivals[s].push_back(a);
  }

  sim::Tracer* tracer = cfg_.base.tracer != nullptr ? cfg_.base.tracer
                                                    : sim::default_tracer();
  const std::uint64_t trace_before =
      tracer != nullptr ? tracer->events_recorded() : 0;
  int trace_pid = 0, bus_tid = 0, merge_tid = 0;
  if (tracer != nullptr) {
    trace_pid = tracer->begin_process(
        "algas-sharded:" + std::to_string(k) + "x" +
        std::to_string(selective_ ? cfg_.fanout : k));
    bus_tid = tracer->lane(trace_pid, "host bus");
    merge_tid = tracer->lane(trace_pid, "host merge");
  }

  sim::HostBus bus(cfg_.base.cost);
  if (tracer != nullptr) bus.set_tracer(tracer, trace_pid, bus_tid);

  sim::Simulation host_sim;
  metrics::Collector merged_collector;
  MergeActor merger(cfg_.base.cost, cfg_.base.search.topk, gathers,
                    merged_collector);
  if (tracer != nullptr) merger.set_tracer(tracer, trace_pid, merge_tid);

  std::vector<metrics::Collector> shard_collectors(k);
  std::vector<std::unique_ptr<EngineRun>> runs;
  runs.reserve(k);
  sim::SimulationGroup group;
  for (std::size_t s = 0; s < k; ++s) {
    RunAttach attach;
    attach.host_bus = &bus;
    attach.label_suffix = ":shard" + std::to_string(s);
    attach.deliver = [this, s, &gathers, &shard_collectors, &host_sim,
                      &merger](metrics::QueryRecord&& rec) {
      GatherState& g = gathers[rec.query_index];
      // Local -> global: one offset add per entry, monotone within the
      // shard, so the run stays sorted by (distance, id).
      for (KV& kv : rec.results) {
        kv = KV::make(kv.dist, part_.to_global(s, kv.id()));
      }
      metrics::QueryRecord& m = g.merged;
      m.dispatch_ns = std::min(m.dispatch_ns, rec.dispatch_ns);
      m.gpu_done_ns = std::max(m.gpu_done_ns, rec.gpu_done_ns);
      m.disposition = std::min(m.disposition, rec.disposition);
      m.steps += rec.steps;
      m.rounds += rec.rounds;
      m.scored_points += rec.scored_points;
      m.gpu_cost += rec.gpu_cost;
      const auto it = std::find(g.route.begin(), g.route.end(), s);
      const auto ordinal =
          static_cast<std::size_t>(std::distance(g.route.begin(), it));
      const SimTime done = rec.done_ns;
      g.runs[ordinal] = rec.results;  // keep a copy in the diagnostics view
      shard_collectors[s].add(std::move(rec));
      if (++g.received == g.route.size()) {
        merger.push_ready(rec.query_index, done);
        host_sim.schedule(&merger, done);
      }
    };
    runs.push_back(std::make_unique<EngineRun>(*engines_[s],
                                               shard_arrivals[s],
                                               std::move(attach)));
    group.add(&runs[s]->simulation());
  }
  group.add(&host_sim);
  group.run();

  if (merged_collector.size() != arrivals.size()) {
    throw std::logic_error(
        "ShardedEngine: merged " + std::to_string(merged_collector.size()) +
        " of " + std::to_string(arrivals.size()) + " queries");
  }

  ShardedReport rep;
  rep.shards.reserve(k);
  EngineReport& m = rep.merged;
  for (std::size_t s = 0; s < k; ++s) {
    EngineReport r = runs[s]->finish();
    m += r;
    rep.shards.push_back(std::move(r));
    rep.shard_records.merge(shard_collectors[s]);
  }
  m.sim_events += host_sim.events_processed();
  m.sim_stale_events += host_sim.stale_events();
  m.host_busy_ns += merger.busy_ns();

  m.summary = merged_collector.summarize();
  m.storage = ds_.storage();
  m.plan = engines_[0]->plan();
  if (m.summary.span_ns > 0.0 && m.cta_count > 0) {
    m.gpu_utilization =
        m.cta_busy_ns /
        (m.summary.span_ns * static_cast<double>(m.cta_count));
  }
  if (ds_.has_ground_truth()) {
    m.recall =
        metrics::served_recall(ds_, merged_collector, cfg_.base.search.topk);
  }
  m.collector = std::move(merged_collector);
  m.trace_events =
      tracer != nullptr ? tracer->events_recorded() - trace_before : 0;
  if (tracer != nullptr && cfg_.base.tracer == nullptr &&
      !sim::trace_default_path().empty()) {
    tracer->save(sim::trace_default_path());
  }

  rep.bus_transactions = bus.transactions();
  rep.bus_bytes = bus.bytes();
  rep.bus_utilization = bus.utilization(m.summary.span_ns);
  rep.merge_busy_ns = merger.busy_ns();
  rep.merges = merger.merges();
  rep.mean_fanout = arrivals.empty()
                        ? 0.0
                        : static_cast<double>(routed_total) /
                              static_cast<double>(arrivals.size());
  return rep;
}

}  // namespace algas::core
