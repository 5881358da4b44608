#include "workloads.hpp"

#include <algorithm>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>

#include "common/rng.hpp"
#include "common/thread_pool.hpp"
#include "core/engine.hpp"
#include "core/mutable_index.hpp"
#include "core/sharded_engine.hpp"
#include "dataset/ground_truth.hpp"
#include "dataset/synthetic.hpp"
#include "graph/builder.hpp"
#include "metrics/recall.hpp"
#include "search/multi_cta.hpp"
#include "search/topk_merge.hpp"

namespace perfbench {

namespace {

using algas::BuildConfig;
using algas::Dataset;
using algas::Graph;
using algas::GraphKind;
using algas::KV;
using algas::NodeId;
using algas::SyntheticSpec;
using algas::core::AlgasConfig;
using algas::core::AlgasEngine;
using algas::core::EngineReport;
using algas::metrics::QueryRecord;

// ---------------------------------------------------------------------------
// Fixed configuration shared by every workload.

constexpr std::size_t kTopk = 10;
/// Cold set-ups per run; setup_s is their median.
constexpr int kSetups = 3;
/// Timed passes of each kind (untraced, and traced in a traced run) that
/// run even when --seconds has already elapsed.
constexpr int kMinPasses = 3;
constexpr int kMinTracedPasses = 2;
/// Random row gathers the distance probe scores per query, and its rounds.
constexpr std::size_t kProbeGather = 64;
constexpr std::size_t kProbeEvals = 4'000'000;

/// 16 slots x 4 CTAs, L=128, top-10, beam 4 from offset 24, mirrored
/// polling, four host workers. One worker makes the closed loop host-bound,
/// pinning its latency to a constant of the cost model; with two, bursts of
/// slot completions queue on the host and the open loop's p99 swings with
/// the seed (28-42 us against 24.5-25.4 us with four).
AlgasConfig slot_config() {
  AlgasConfig cfg;
  cfg.search.topk = kTopk;
  cfg.search.candidate_len = 128;
  cfg.search.beam_width = 4;
  cfg.search.offset_beam = 24;
  cfg.slots = 16;
  cfg.n_parallel = 4;
  cfg.host_threads = 4;
  cfg.host_sync = algas::core::HostSync::kPollMirrored;
  return cfg;
}

/// Degree-16 NSW graphs: a degree-32 build of the same rows costs ~3.5x
/// more, which would not leave room for three cold set-ups per run.
/// threads = 0: construction and ground truth use ALGAS_BUILD_THREADS.
BuildConfig build_config() {
  BuildConfig cfg;
  cfg.degree = 16;
  cfg.ef_construction = 64;
  cfg.seed = 7;
  return cfg;
}

/// Independent input streams from one workload seed.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  return algas::splitmix64(algas::splitmix64(seed) ^ (stream * 0x9E3779B97F4A7C15ULL));
}

std::string strf(const char* fmt, ...) {
  char buf[512];
  va_list args;
  va_start(args, fmt);
  std::vsnprintf(buf, sizeof(buf), fmt, args);
  va_end(args);
  return buf;
}

std::string config_line(const AlgasConfig& a, const BuildConfig& b) {
  return strf(
      "config: slots=%zu ctas/slot=%zu L=%zu topk=%zu beam=%zu@%zu sync=%s "
      "host_threads=%zu | build: nsw degree=%zu ef=%zu batch=%zu threads=%zu "
      "(ALGAS_BUILD_THREADS)",
      a.slots, a.n_parallel, a.search.candidate_len, a.search.topk,
      a.search.beam_width, a.search.offset_beam,
      algas::core::host_sync_name(a.host_sync), a.host_threads, b.degree,
      b.ef_construction, b.insert_batch,
      algas::BuildExecutor(b.threads).threads());
}

std::string dataset_line(const SyntheticSpec& s) {
  return strf("data: %s rows=%zu dim=%zu metric=%s queries=%zu data_seed=%s",
              s.name.c_str(), s.num_base, s.dim,
              s.metric == algas::Metric::kL2 ? "l2" : "cosine", s.num_queries,
              hex64(s.seed).c_str());
}

std::uint64_t graph_checksum(const Graph& g) {
  Fnv f;
  f.mix(g.num_nodes());
  f.mix(g.degree());
  f.mix(g.entry_point());
  for (NodeId v = 0; static_cast<std::size_t>(v) < g.num_nodes(); ++v) {
    for (const NodeId u : g.neighbors(v)) f.mix(u);
  }
  return f.h;
}

/// Seconds `f` takes; recorded as span `name` when `log` is non-null.
template <class F>
double timed(SpanLog* log, const char* name, int pass, F&& f) {
  ScopedSpan span(log, name, pass);
  Stopwatch sw;
  f();
  return sw.seconds();
}

// ---------------------------------------------------------------------------
// Metric catalogue: every workload reports every metric, in this order.

struct MetricDef {
  const char* name;
  const char* unit;
  bool bounded = true;
};

/// host_rows_per_s exists only where passes write (churn-sift) and the miss
/// rate is 0 by design on every workload, so neither can carry a bound:
/// both are printed, and misses also count in the JSON "failed" field.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"host_qps", "queries/s"},
    {"host_rows_per_s", "rows/s", false},
    {"recall_at_10", "fraction"},
    {"virtual_p50_us", "us"},
    {"virtual_p99_us", "us"},
    {"virtual_goodput_qps", "queries/s"},
    {"miss_rate", "fraction", false},
    {"peak_rss_mb", "MB"},
};

constexpr MetricDef kPerLayer[] = {
    {"dataset.synth_s", "s"},
    {"dataset.gt_s", "s"},
    {"graph.build_s", "s"},
    {"graph.build_evals", "count"},
    {"graph.build_evals_per_s", "1/s"},
    {"distance.evals_per_s", "1/s"},
    {"search.us_per_query", "us"},
    {"search.evals_per_query", "count"},
    {"search.rounds_per_query", "count"},
    {"search.expanded_per_query", "count"},
    {"search.merge_us_per_query", "us"},
    {"simgpu.events_per_query", "count"},
    {"simgpu.stale_events_per_query", "count"},
    {"simgpu.pcie_bytes_per_query", "B"},
    {"simgpu.gpu_utilization", "fraction"},
    {"simgpu.bus_utilization", "fraction"},
    {"core.overhead_us_per_query", "us"},
    {"core.queue_wait_p99_us", "us"},
    {"core.device_p99_us", "us"},
    {"core.host_tail_p99_us", "us"},
    {"core.shard_skew_p99_us", "us"},
    {"core.shed", "count"},
    {"core.evicted", "count"},
    {"core.partial_answers", "count"},
    {"core.mutable.remove_s", "s"},
    {"core.mutable.stage_s", "s"},
    {"core.mutable.prepare_s", "s"},
    {"core.mutable.apply_s", "s"},
    {"core.mutable.compact_s", "s"},
    {"core.mutable.serve_s", "s"},
    {"core.mutable.compact_patched", "count"},
    {"trace.overhead", "fraction"},
};

/// Metric values a workload fills in; unset per-layer metrics are layers
/// the workload does not exercise and read 0.
class Sheet {
 public:
  explicit Sheet(const std::string& workload) : workload_(workload) {
    for (const MetricDef& d : kEndToEnd) {
      e2e_.push_back({d.name, kUnset, d.unit, {}, d.bounded});
    }
    for (const MetricDef& d : kPerLayer) {
      layer_.push_back({d.name, kUnset, d.unit, {}});
    }
  }

  void set(const std::string& name, double value, std::string note = {}) {
    for (auto* list : {&e2e_, &layer_}) {
      for (Metric& m : *list) {
        if (m.name == name) {
          m.value = value;
          m.note = std::move(note);
          return;
        }
      }
    }
    throw std::logic_error("unknown metric " + name);
  }

  void finish(Report& rep, bool traced) {
    for (Metric& m : e2e_) {
      if (!std::isnan(m.value)) continue;
      if (m.bounded) {
        throw std::logic_error(workload_ + " left " + m.name + " unset");
      }
      m.note = "not applicable to " + workload_;
    }
    rep.end_to_end = e2e_;
    if (!traced) return;
    for (Metric& m : layer_) {
      if (std::isnan(m.value)) {
        m.value = 0.0;
        m.note = "layer not exercised by " + workload_;
      }
    }
    rep.per_layer = layer_;
  }

 private:
  static constexpr double kUnset = std::numeric_limits<double>::quiet_NaN();
  std::string workload_;
  std::vector<Metric> e2e_;
  std::vector<Metric> layer_;
};

// ---------------------------------------------------------------------------
// Pass scheduling

/// Pass 0 warms caches and carries the checking work (recall against
/// exact ground truth); it is not timed. Timed passes follow until
/// `seconds` have gone by since pass 0 began, with a floor on their
/// number. In a traced run they alternate untraced (odd) and traced (even).
class PassSchedule {
 public:
  PassSchedule(double seconds, bool trace) : seconds_(seconds), trace_(trace) {}

  bool next() {
    if (pass_ > 0) ++(traced() ? traced_done_ : untraced_done_);
    ++pass_;
    if (pass_ == 0) return true;
    const bool floor_met =
        untraced_done_ >= (trace_ ? kMinTracedPasses : kMinPasses) &&
        (!trace_ || traced_done_ >= kMinTracedPasses);
    return !(floor_met && clock_.seconds() >= seconds_);
  }

  int pass() const { return pass_; }
  bool warmup() const { return pass_ == 0; }
  bool traced() const { return trace_ && pass_ > 0 && pass_ % 2 == 0; }

 private:
  double seconds_;
  bool trace_;
  int pass_ = -1;
  int untraced_done_ = 0;
  int traced_done_ = 0;
  Stopwatch clock_;
};

/// Timed seconds per pass, split by kind.
struct PassTimes {
  std::vector<double> untraced;
  std::vector<double> traced;

  void add(bool is_traced, double s) {
    (is_traced ? traced : untraced).push_back(s);
  }
};

/// work / seconds for each pass.
std::vector<double> rates(double work, const std::vector<double>& seconds) {
  std::vector<double> out;
  for (const double s : seconds) out.push_back(work / s);
  return out;
}

std::string list_line(const char* what, const std::vector<double>& v) {
  std::string out = what;
  for (const double x : v) out += strf(" %.4g", x);
  return out;
}

std::string spread_note(const std::vector<double>& v, const char* what) {
  if (v.size() < 2) return strf("%s, n=%zu", what, v.size());
  const Quartiles q = quartiles(v);
  return strf("%s, median of %zu (q1 %.4g, q3 %.4g)", what, v.size(), q.q1,
              q.q3);
}

/// Cross-pass determinism: every pass must reproduce pass 0's results and
/// modeled timings bit for bit.
struct Stability {
  std::optional<std::uint64_t> results;
  std::optional<std::uint64_t> virt;
  bool results_ok = true;
  bool virt_ok = true;

  void observe(std::uint64_t r, std::uint64_t v) {
    if (!results) {
      results = r;
      virt = v;
      return;
    }
    results_ok = results_ok && *results == r;
    virt_ok = virt_ok && *virt == v;
  }

  void report(Report& rep, int passes) const {
    rep.check("result_checksum_identical_across_passes", results_ok,
              strf("%s over %d passes", hex64(results.value_or(0)).c_str(),
                   passes));
    rep.check("virtual_metrics_identical_across_passes", virt_ok,
              strf("%s over %d passes", hex64(virt.value_or(0)).c_str(),
                   passes));
  }
};

/// Counters of an engine report that must repeat exactly.
void mix_counters(Fnv& f, const EngineReport& r) {
  f.mix(r.sim_events);
  f.mix(r.sim_stale_events);
  f.mix(r.pcie_bytes);
  f.mix(r.pcie_transactions);
  f.mix(r.host_polls);
  f.mix_double(r.gpu_utilization);
  f.mix_double(r.recall);
  f.mix_double(r.summary.goodput_qps);
  f.mix_double(r.summary.span_ns);
}

/// Latency charged to a query that was not served, in a loop without
/// deadlines: pad_misses then charges the slowest served query.
constexpr double kNoDeadline = std::numeric_limits<double>::infinity();

/// `phase` of every served record, in us, padded to `attempted` values
/// with `miss_us` (see pad_misses).
std::vector<double> phase_us(std::span<const QueryRecord> recs,
                             std::size_t attempted,
                             double (*phase)(const QueryRecord&),
                             double miss_us) {
  std::vector<double> out;
  out.reserve(attempted);
  for (const QueryRecord& r : recs) {
    if (r.served()) out.push_back(phase(r) / 1000.0);
  }
  return pad_misses(std::move(out), attempted, miss_us);
}

double service_ns(const QueryRecord& r) { return r.done_ns - r.dispatch_ns; }
double latency_ns(const QueryRecord& r) { return r.done_ns - r.arrival_ns; }
double queue_ns(const QueryRecord& r) { return r.dispatch_ns - r.arrival_ns; }
double device_ns(const QueryRecord& r) { return r.gpu_done_ns - r.dispatch_ns; }
double tail_ns(const QueryRecord& r) { return r.done_ns - r.gpu_done_ns; }

/// p50/p99 end-to-end metrics over the `attempted` queries of a pass.
/// Closed loops time dispatch -> done; open loops arrival -> done, so
/// queueing behind a late slot counts. A query not served counts at its
/// deadline, `miss_us` after its arrival (kNoDeadline: see pad_misses).
void set_virtual_latency(Sheet& sheet, std::span<const QueryRecord> recs,
                         std::size_t attempted, bool open_loop,
                         double miss_us) {
  const auto v = phase_us(recs, attempted, open_loop ? latency_ns : service_ns,
                          miss_us);
  const char* what = open_loop ? "arrival->done" : "dispatch->done";
  sheet.set("virtual_p50_us", median(v),
            strf("%s, %zu attempted queries", what, v.size()));
  sheet.set("virtual_p99_us", tail_percentile(v, 99.0),
            strf("%s, nearest rank of %zu attempted queries, misses at %s",
                 what, v.size(),
                 std::isfinite(miss_us) ? "the deadline" : "the slowest served"));
}

/// Phase tails over the `attempted` queries of a pass. A query not served
/// waits `miss_us` in the queue and spends nothing in the later phases.
void set_phase_tails(Sheet& sheet, std::span<const QueryRecord> recs,
                     std::size_t attempted, double miss_us) {
  sheet.set("core.queue_wait_p99_us",
            tail_percentile(phase_us(recs, attempted, queue_ns, miss_us), 99.0),
            "arrival->dispatch");
  sheet.set("core.device_p99_us",
            tail_percentile(phase_us(recs, attempted, device_ns, 0.0), 99.0),
            "dispatch->last CTA done");
  sheet.set("core.host_tail_p99_us",
            tail_percentile(phase_us(recs, attempted, tail_ns, 0.0), 99.0),
            "last CTA done->delivered (fetch + merge)");
}

/// The workloads run below the knee, so every query must be served within
/// its deadline: a shed, evicted, late or lost query fails the run. Its
/// latency is still charged (pad_misses) and it counts in "failed".
void check_no_misses(Report& rep, std::size_t misses, std::size_t queries) {
  rep.check("every_query_served_in_deadline", misses == 0,
            strf("%zu of %zu queries shed, evicted, late or lost", misses,
                 queries));
}

void set_search_counts(Sheet& sheet, std::span<const QueryRecord> recs) {
  double evals = 0.0, rounds = 0.0, steps = 0.0;
  std::size_t n = 0;
  for (const QueryRecord& r : recs) {
    if (!r.served()) continue;
    evals += static_cast<double>(r.scored_points);
    rounds += static_cast<double>(r.rounds);
    steps += static_cast<double>(r.steps);
    ++n;
  }
  const double dn = static_cast<double>(std::max<std::size_t>(n, 1));
  sheet.set("search.evals_per_query", evals / dn, "QueryRecord, all CTAs");
  sheet.set("search.rounds_per_query", rounds / dn, "QueryRecord");
  sheet.set("search.expanded_per_query", steps / dn, "QueryRecord");
}

void set_sim_counts(Sheet& sheet, const EngineReport& r, std::size_t queries) {
  const double q = static_cast<double>(queries);
  sheet.set("simgpu.events_per_query", static_cast<double>(r.sim_events) / q,
            "EngineReport");
  sheet.set("simgpu.stale_events_per_query",
            static_cast<double>(r.sim_stale_events) / q, "EngineReport");
  sheet.set("simgpu.pcie_bytes_per_query",
            static_cast<double>(r.pcie_bytes) / q, "EngineReport");
  sheet.set("simgpu.gpu_utilization", r.gpu_utilization, "EngineReport");
}

/// Dataset::distance_batch over seeded random gathers of the rows.
double distance_probe(const Dataset& ds, std::uint64_t seed, SpanLog* log) {
  ScopedSpan span(log, "distance.probe");
  algas::Rng rng(seed);
  const std::size_t nq = std::min<std::size_t>(ds.num_queries(), 64);
  std::vector<std::vector<NodeId>> gathers(nq, std::vector<NodeId>(kProbeGather));
  for (auto& g : gathers) {
    for (NodeId& id : g) id = static_cast<NodeId>(rng.next_below(ds.num_base()));
  }
  std::vector<float> out(kProbeGather);
  std::vector<double> rates;
  float sink = 0.0f;
  for (int rep = 0; rep < 3; ++rep) {
    Stopwatch sw;
    std::size_t evals = 0;
    while (evals < kProbeEvals) {
      for (std::size_t q = 0; q < nq; ++q) {
        ds.distance_batch(ds.query(q), gathers[q], out);
        sink += out[q % kProbeGather];
        evals += kProbeGather;
      }
    }
    rates.push_back(static_cast<double>(evals) / sw.seconds());
  }
  if (std::isnan(sink)) throw std::runtime_error("distance probe produced NaN");
  return median(rates);
}

/// Replay of search::multi_cta_search with `engine`'s normalized config,
/// CTA count and seed; returns host seconds spent.
double replay_search(const AlgasEngine& engine, std::size_t query) {
  Stopwatch sw;
  const auto r = algas::search::multi_cta_search(
      engine.dataset(), engine.graph(), engine.config().cost,
      engine.config().search, engine.plan().n_parallel,
      engine.dataset().query(query), query, engine.config().seed);
  if (r.topk.empty()) throw std::runtime_error("search replay found nothing");
  return sw.seconds();
}

void set_host_probe(Report& rep, double before, double after) {
  rep.info.push_back(
      strf("host_probe_ms: before=%.1f after=%.1f (fixed reference loop, "
           "informational, never compared)",
           before, after));
}

/// The kSetups cold builds of one seed must produce byte-identical graphs.
void check_setups_identical(Report& rep, const std::vector<std::uint64_t>& sums) {
  rep.check("graph_identical_across_setups",
            std::all_of(sums.begin(), sums.end(),
                        [&](std::uint64_t s) { return s == sums[0]; }),
            hex64(sums[0]));
}

/// Median set-up, synthesis and build seconds of the kSetups set-ups.
struct SetupTimes {
  std::vector<double> synth;
  std::vector<double> build;
  std::vector<double> total() const {
    std::vector<double> t;
    for (std::size_t i = 0; i < synth.size(); ++i) {
      t.push_back(synth[i] + build[i]);
    }
    return t;
  }
};

void set_setup(Sheet& sheet, const SetupTimes& st, const char* build_what) {
  sheet.set("setup_s", median(st.total()),
            spread_note(st.total(), "cold synthesis + index construction"));
  sheet.set("dataset.synth_s", median(st.synth), "make_synthetic");
  sheet.set("graph.build_s", median(st.build), build_what);
}

/// Prints the traced run's own figure for an end-to-end host metric beside
/// the untraced one (work per pass over median pass seconds) and returns
/// the tracing overhead as a fraction of the untraced time.
double traced_line(Report& rep, const char* metric, double work_per_pass,
                   const std::vector<double>& untraced_s,
                   const std::vector<double>& traced_s) {
  const double u = median(untraced_s);
  const double t = median(traced_s);
  rep.info.push_back(strf("traced run end to end: %s untraced %.6g traced "
                          "%.6g (tracing overhead %+.2f%%, %zu vs %zu passes)",
                          metric, work_per_pass / u, work_per_pass / t,
                          100.0 * (t / u - 1.0), untraced_s.size(),
                          traced_s.size()));
  return t / u - 1.0;
}

constexpr const char* kOverheadNote =
    "median traced / untraced pass host time - 1";

// ---------------------------------------------------------------------------
// closed-sift: closed loop on one device; search and distance dominate.

constexpr std::size_t kClosedRows = 20000;
constexpr std::size_t kClosedQueries = 2000;

Report closed_sift(const Options& o, SpanLog* log) {
  Report rep;
  Sheet sheet("closed-sift");
  SyntheticSpec spec = algas::sift_like_spec();
  spec.num_base = kClosedRows;
  spec.num_queries = kClosedQueries;
  spec.seed = derive_seed(o.seed, 1);
  const BuildConfig bcfg = build_config();
  const AlgasConfig acfg = slot_config();
  rep.info.push_back(dataset_line(spec));
  rep.info.push_back(config_line(acfg, bcfg));
  rep.info.push_back(strf("loop: closed, %zu queries per pass, all at t=0",
                          kClosedQueries));

  SetupTimes st;
  std::optional<Dataset> ds;
  algas::BuildReport build;
  std::vector<std::uint64_t> graph_sums;
  for (int i = 0; i < kSetups; ++i) {
    build = {};
    ds.reset();  // free the previous set-up before timing the next
    ScopedSpan span(log, "setup");
    st.synth.push_back(timed(log, "dataset.make_synthetic", -1,
                             [&] { ds.emplace(algas::make_synthetic(spec)); }));
    st.build.push_back(timed(log, "graph.build_graph", -1, [&] {
      build = algas::build_graph(GraphKind::kNsw, *ds, bcfg);
    }));
    graph_sums.push_back(graph_checksum(build.graph));
  }
  check_setups_identical(rep, graph_sums);
  set_setup(sheet, st, "build_graph");
  const double gt_s = timed(log, "dataset.compute_ground_truth", -1, [&] {
    algas::compute_ground_truth(*ds, kTopk);
  });
  sheet.set("dataset.gt_s", gt_s, "checking work, timed apart");
  sheet.set("graph.build_evals", static_cast<double>(build.scored_points),
            "BuildReport");
  sheet.set("graph.build_evals_per_s",
            static_cast<double>(build.scored_points) / median(st.build));

  AlgasEngine engine(*ds, build.graph, acfg);
  if (log != nullptr) {
    sheet.set("distance.evals_per_s",
              distance_probe(*ds, derive_seed(o.seed, 9), log),
              "Dataset::distance_batch, random gathers of 64 rows");
  }

  PassTimes times;
  Stability stable;
  std::optional<EngineReport> first;
  bool delivered_ok = true;
  double replay_s = 0.0;
  std::size_t replayed = 0, misses = 0;
  const double probe_before = host_probe_ms();
  PassSchedule sched(o.seconds, o.trace);
  int passes = 0;
  while (sched.next()) {
    const int p = sched.pass();
    SpanLog* plog = sched.traced() ? log : nullptr;
    EngineReport r;
    {
      ScopedSpan pass_span(plog, "pass", p);
      const double s = timed(plog, "core.AlgasEngine::run_closed_loop", p,
                             [&] { r = engine.run_closed_loop(kClosedQueries); });
      if (!sched.warmup()) times.add(sched.traced(), s);
    }
    ++passes;
    const auto recs = std::span<const QueryRecord>(r.collector.records());
    const MissCount mc = count_misses(recs, {}, kClosedQueries, 1);
    delivered_ok = delivered_ok && mc.delivered == mc.attempted;
    rep.attempted += mc.attempted;
    misses += mc.misses();
    Fnv virt;
    virt.mix(virtual_checksum(recs));
    mix_counters(virt, r);
    stable.observe(result_checksum(recs), virt.h);
    if (sched.traced()) {
      ScopedSpan replay_span(log, "replay", p);
      for (const QueryRecord& rec : recs) {
        ScopedSpan q(log, "search.multi_cta_search", p,
                     static_cast<int>(rec.query_index));
        replay_s += replay_search(engine, rec.query_index);
        ++replayed;
      }
    }
    if (sched.warmup()) first = std::move(r);
  }
  const double probe_after = host_probe_ms();
  set_host_probe(rep, probe_before, probe_after);

  const EngineReport& r0 = *first;
  const auto recs = std::span<const QueryRecord>(r0.collector.records());
  stable.report(rep, passes);
  rep.check("delivered_equals_attempted", delivered_ok);
  check_no_misses(rep, misses, rep.attempted);
  rep.failed += misses;
  rep.check("recall_floor", r0.recall >= 0.95,
            strf("recall@10 %.4f >= 0.95", r0.recall));

  const auto qps = rates(kClosedQueries, times.untraced);
  rep.info.push_back(list_line("host_qps per untraced pass:", qps));
  sheet.set("host_qps", median(qps),
            spread_note(qps, "queries per second of run_closed_loop"));
  sheet.set("recall_at_10", r0.recall, "mean over served queries");
  sheet.set("miss_rate", count_misses(recs, {}, kClosedQueries, 1).miss_rate(),
            "(attempted - served in deadline) / attempted; no deadline");
  set_virtual_latency(sheet, recs, kClosedQueries, false, kNoDeadline);
  sheet.set("virtual_goodput_qps", r0.summary.goodput_qps,
            "in-deadline completions per modeled second (no deadline)");
  set_search_counts(sheet, recs);
  set_sim_counts(sheet, r0, kClosedQueries);
  set_phase_tails(sheet, recs, kClosedQueries, kNoDeadline);
  if (o.trace) {
    const double search_us = 1e6 * replay_s / static_cast<double>(replayed);
    sheet.set("search.us_per_query", search_us,
              strf("multi_cta_search replay of %zu queries", replayed));
    sheet.set("core.overhead_us_per_query",
              1e6 * median(times.traced) / kClosedQueries - search_us,
              "estimate: traced pass time per query - search.us_per_query");
    sheet.set("trace.overhead",
              traced_line(rep, "host_qps", kClosedQueries, times.untraced,
                          times.traced),
              kOverheadNote);
  }
  sheet.set("peak_rss_mb", peak_rss_mb(), "getrusage ru_maxrss");
  sheet.finish(rep, o.trace);
  return rep;
}

// ---------------------------------------------------------------------------
// serve-glove-k4: open-loop serving over four shards below the knee.

constexpr std::size_t kServeRows = 10000;
constexpr std::size_t kServeQueries = 1000;
constexpr std::size_t kServeShards = 4;
constexpr double kServeRateQps = 100000.0;
constexpr double kServeDeadlineUs = 1000.0;
constexpr std::size_t kServeCapacity = 64;
constexpr double kServeHighPriority = 0.25;

/// Poisson arrivals at kServeRateQps conditioned on exactly kServeQueries
/// arrivals in the window they fill on average: given its count, a Poisson
/// process places its arrivals as sorted independent uniform instants. The
/// window is therefore the same for every seed, and so is the host work of
/// a pass, which idle CTA polls across the window dominate; an unconditioned
/// stream of 1,000 arrivals spans a window whose length varies by ~3% (1
/// sigma) from seed to seed. Deadlines are relative to the due instant; a
/// seeded 25% of queries ride the highest admission class, as
/// ServingEngine's mix does.
std::vector<algas::core::PendingQuery> serve_arrivals(std::uint64_t seed) {
  const double window_ns = 1e9 * kServeQueries / kServeRateQps;
  algas::Rng when(derive_seed(seed, 2));
  std::vector<double> t(kServeQueries);
  for (double& x : t) x = when.next_double() * window_ns;
  std::sort(t.begin(), t.end());
  algas::Rng mix(derive_seed(seed, 3));
  std::vector<algas::core::PendingQuery> out(kServeQueries);
  for (std::size_t i = 0; i < kServeQueries; ++i) {
    out[i].query_index = i;
    out[i].arrival_ns = t[i];
    out[i].deadline_ns = t[i] + kServeDeadlineUs * 1000.0;
    if (mix.next_double() < kServeHighPriority) {
      out[i].priority =
          static_cast<std::uint8_t>(algas::core::kPriorityClasses - 1);
    }
  }
  return out;
}

/// Cross-shard merge replay: merge_sorted_runs over each query's shard
/// runs from shard_records. Returns host seconds; `matches` reports
/// whether every replayed merge equals the engine's merged answer.
double replay_merges(std::span<const QueryRecord> merged,
                     std::span<const QueryRecord> shard_records,
                     std::size_t num_queries, bool* matches) {
  std::vector<std::vector<const QueryRecord*>> runs(num_queries);
  for (const QueryRecord& r : shard_records) runs[r.query_index].push_back(&r);
  std::vector<KV> concat;
  double seconds = 0.0;
  *matches = true;
  for (const QueryRecord& m : merged) {
    if (!m.served()) continue;
    const auto& rs = runs[m.query_index];
    concat.assign(rs.size() * kTopk, KV::empty());
    for (std::size_t i = 0; i < rs.size(); ++i) {
      std::copy(rs[i]->results.begin(), rs[i]->results.end(),
                concat.begin() + static_cast<std::ptrdiff_t>(i * kTopk));
    }
    Stopwatch sw;
    const auto out = algas::search::merge_sorted_runs(
        concat, rs.size(), kTopk, kTopk, algas::search::AcceptPredicate{});
    seconds += sw.seconds();
    if (out.size() != m.results.size() ||
        !std::equal(out.begin(), out.end(), m.results.begin(),
                    [](const KV& a, const KV& b) {
                      return a.id() == b.id() && a.dist == b.dist;
                    })) {
      *matches = false;
    }
  }
  return seconds;
}

/// p99 over queries of (last shard done - first shard done); a query no
/// shard served has no skew and counts as 0.
double shard_skew_p99_us(std::span<const QueryRecord> shard_records,
                         std::size_t num_queries) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::vector<double> lo(num_queries, kInf), hi(num_queries, -kInf);
  for (const QueryRecord& r : shard_records) {
    if (!r.served()) continue;
    lo[r.query_index] = std::min(lo[r.query_index], r.done_ns);
    hi[r.query_index] = std::max(hi[r.query_index], r.done_ns);
  }
  std::vector<double> skew;
  for (std::size_t q = 0; q < num_queries; ++q) {
    if (hi[q] >= lo[q]) skew.push_back((hi[q] - lo[q]) / 1000.0);
  }
  return tail_percentile(pad_misses(std::move(skew), num_queries, 0.0), 99.0);
}

Report serve_glove_k4(const Options& o, SpanLog* log) {
  using algas::core::ShardedConfig;
  using algas::core::ShardedEngine;
  using algas::core::ShardedReport;
  Report rep;
  Sheet sheet("serve-glove-k4");
  SyntheticSpec spec = algas::glove_like_spec();
  spec.num_base = kServeRows;
  spec.num_queries = kServeQueries;
  spec.seed = derive_seed(o.seed, 1);

  ShardedConfig scfg;
  scfg.base = slot_config();
  scfg.base.admission.capacity = kServeCapacity;
  scfg.base.admission.policy = algas::core::ShedPolicy::kRejectNew;
  scfg.shards = kServeShards;
  scfg.build = build_config();
  const auto arrivals = serve_arrivals(o.seed);
  rep.info.push_back(dataset_line(spec));
  rep.info.push_back(config_line(scfg.base, scfg.build));
  rep.info.push_back(strf(
      "loop: open, %zu poisson arrivals at %.0f q/s in a fixed %.0f us "
      "window (rate fixed, not calibrated), deadline %.0f us after the due "
      "instant, admission capacity %zu reject-new, %.0f%% high priority, %zu "
      "shards full fanout, arrival_seed=%s mix_seed=%s",
      kServeQueries, kServeRateQps, 1e6 * kServeQueries / kServeRateQps,
      kServeDeadlineUs, kServeCapacity, 100.0 * kServeHighPriority,
      kServeShards, hex64(derive_seed(o.seed, 2)).c_str(),
      hex64(derive_seed(o.seed, 3)).c_str()));
  {
    Fnv f;
    for (const auto& a : arrivals) {
      f.mix(a.query_index);
      f.mix_double(a.arrival_ns);
      f.mix_double(a.deadline_ns);
      f.mix(a.priority);
    }
    rep.info.push_back("arrival_checksum: " + hex64(f.h));
  }

  SetupTimes st;
  std::unique_ptr<ShardedEngine> engine;
  std::unique_ptr<Dataset> ds;
  std::vector<std::uint64_t> graph_sums;
  for (int i = 0; i < kSetups; ++i) {
    engine.reset();  // the engine refers to the dataset: drop it first
    ds.reset();
    ScopedSpan span(log, "setup");
    st.synth.push_back(timed(log, "dataset.make_synthetic", -1, [&] {
      ds = std::make_unique<Dataset>(algas::make_synthetic(spec));
    }));
    st.build.push_back(timed(log, "core.ShardedEngine::ShardedEngine", -1, [&] {
      engine = std::make_unique<ShardedEngine>(*ds, scfg);
    }));
    Fnv f;
    for (std::size_t s = 0; s < kServeShards; ++s) {
      f.mix(graph_checksum(engine->shard_graph(s)));
    }
    graph_sums.push_back(f.h);
  }
  check_setups_identical(rep, graph_sums);
  set_setup(sheet, st, "ShardedEngine constructor: partition + 4 shard builds");
  const double gt_s = timed(log, "dataset.compute_ground_truth", -1, [&] {
    algas::compute_ground_truth(*ds, kTopk);
  });
  sheet.set("dataset.gt_s", gt_s, "checking work, timed apart");
  const ShardedEngine& sharded = *engine;
  if (log != nullptr) {
    // The sharded constructor keeps no BuildReport, so count the build's
    // distance evaluations by rebuilding each shard, and check the rebuild
    // reproduces the serving graph.
    ScopedSpan span(log, "graph.rebuild_for_counts");
    std::size_t evals = 0;
    bool same = true;
    for (std::size_t s = 0; s < kServeShards; ++s) {
      const auto r = algas::build_graph(GraphKind::kNsw, sharded.shard_dataset(s),
                                        scfg.build);
      evals += r.scored_points;
      same = same && graph_checksum(r.graph) ==
                         graph_checksum(sharded.shard_graph(s));
    }
    rep.check("shard_rebuild_identical", same);
    sheet.set("graph.build_evals", static_cast<double>(evals),
              "BuildReport, summed over shard rebuilds");
    sheet.set("graph.build_evals_per_s",
              static_cast<double>(evals) / median(st.build));
    sheet.set("distance.evals_per_s",
              distance_probe(*ds, derive_seed(o.seed, 9), log),
              "Dataset::distance_batch, random gathers of 64 rows");
  }

  PassTimes times;
  Stability stable;
  std::optional<ShardedReport> first;
  std::optional<MissCount> first_mc;
  bool delivered_ok = true;
  bool merges_match = true;
  double replay_s = 0.0, merge_s = 0.0;
  std::size_t replayed = 0, merged_n = 0, misses = 0;
  const double probe_before = host_probe_ms();
  PassSchedule sched(o.seconds, o.trace);
  int passes = 0;
  while (sched.next()) {
    const int p = sched.pass();
    SpanLog* plog = sched.traced() ? log : nullptr;
    ShardedReport r;
    {
      ScopedSpan pass_span(plog, "pass", p);
      const double s = timed(plog, "core.ShardedEngine::run", p,
                             [&] { r = engine->run(arrivals); });
      if (!sched.warmup()) times.add(sched.traced(), s);
    }
    ++passes;
    const auto recs =
        std::span<const QueryRecord>(r.merged.collector.records());
    const auto shard_recs =
        std::span<const QueryRecord>(r.shard_records.records());
    const MissCount mc =
        count_misses(recs, shard_recs, kServeQueries, kServeShards);
    delivered_ok = delivered_ok && mc.delivered == mc.attempted;
    rep.attempted += mc.attempted;
    misses += mc.misses();
    Fnv virt;
    virt.mix(virtual_checksum(recs));
    virt.mix(virtual_checksum(shard_recs));
    mix_counters(virt, r.merged);
    virt.mix_double(r.bus_utilization);
    stable.observe(result_checksum(recs), virt.h);
    if (sched.traced()) {
      ScopedSpan replay_span(log, "replay", p);
      for (const QueryRecord& rec : recs) {
        if (!rec.served()) continue;  // the engine searched nothing for it
        ScopedSpan q(log, "search.multi_cta_search", p,
                     static_cast<int>(rec.query_index));
        for (std::size_t s = 0; s < kServeShards; ++s) {
          replay_s += replay_search(sharded.shard_engine(s), rec.query_index);
        }
        ++replayed;
      }
      ScopedSpan m(log, "search.merge_sorted_runs", p);
      bool ok = true;
      merge_s += replay_merges(recs, shard_recs, kServeQueries, &ok);
      merges_match = merges_match && ok;
      merged_n += mc.served;
    }
    if (sched.warmup()) {
      first = std::move(r);
      first_mc = mc;
    }
  }
  const double probe_after = host_probe_ms();
  set_host_probe(rep, probe_before, probe_after);

  const ShardedReport& r0 = *first;
  const auto recs =
      std::span<const QueryRecord>(r0.merged.collector.records());
  const auto shard_recs =
      std::span<const QueryRecord>(r0.shard_records.records());
  stable.report(rep, passes);
  rep.check("delivered_equals_attempted", delivered_ok);
  check_no_misses(rep, misses, rep.attempted);
  rep.failed += misses;
  rep.check("recall_floor", r0.merged.recall >= 0.95,
            strf("recall@10 %.4f >= 0.95", r0.merged.recall));
  rep.info.push_back(strf(
      "outcomes per pass: attempted=%zu served=%zu in_deadline=%zu shed=%zu "
      "evicted=%zu lost=%zu partial=%zu miss_rate=%.6f",
      first_mc->attempted, first_mc->served, first_mc->in_deadline,
      first_mc->shed, first_mc->evicted, first_mc->lost, first_mc->partial,
      first_mc->miss_rate()));

  const auto qps = rates(kServeQueries, times.untraced);
  rep.info.push_back(list_line("host_qps per untraced pass:", qps));
  sheet.set("host_qps", median(qps),
            spread_note(qps, "queries per second of ShardedEngine::run"));
  sheet.set("recall_at_10", r0.merged.recall,
            "mean over served queries, partial answers included");
  sheet.set("miss_rate", first_mc->miss_rate(),
            "(attempted - served in deadline) / attempted; sheds, evictions "
            "and lost queries count");
  set_virtual_latency(sheet, recs, kServeQueries, true, kServeDeadlineUs);
  sheet.set("virtual_goodput_qps", r0.merged.summary.goodput_qps,
            "in-deadline completions per modeled second");
  set_search_counts(sheet, recs);
  set_sim_counts(sheet, r0.merged, kServeQueries);
  sheet.set("simgpu.bus_utilization", r0.bus_utilization,
            "ShardedReport, shared host bus");
  set_phase_tails(sheet, recs, kServeQueries, kServeDeadlineUs);
  if (o.trace) {
    const double search_us = 1e6 * replay_s / static_cast<double>(replayed);
    sheet.set("search.us_per_query", search_us,
              strf("multi_cta_search replay on all %zu shards, %zu queries",
                   kServeShards, replayed));
    sheet.set("search.merge_us_per_query",
              1e6 * merge_s / static_cast<double>(merged_n),
              strf("merge_sorted_runs replay over %zu shard runs",
                   kServeShards));
    rep.check("merge_replay_matches_engine", merges_match);
    sheet.set("core.overhead_us_per_query",
              1e6 * median(times.traced) / kServeQueries - search_us,
              "estimate: traced pass time per query - search.us_per_query");
    sheet.set("core.shard_skew_p99_us",
              shard_skew_p99_us(shard_recs, kServeQueries),
              "first shard done -> last shard done");
    sheet.set("core.shed", static_cast<double>(first_mc->shed),
              "per pass");
    sheet.set("core.evicted", static_cast<double>(first_mc->evicted),
              "per pass");
    sheet.set("core.partial_answers", static_cast<double>(first_mc->partial),
              "per pass: served by fewer shards than probed");
    sheet.set("trace.overhead",
              traced_line(rep, "host_qps", kServeQueries, times.untraced,
                          times.traced),
              kOverheadNote);
  }
  sheet.set("peak_rss_mb", peak_rss_mb(), "getrusage ru_maxrss");
  sheet.finish(rep, o.trace);
  return rep;
}

// ---------------------------------------------------------------------------
// churn-sift: writes beside reads on a MutableIndex.

constexpr std::size_t kChurnRows = 20000;
constexpr std::size_t kChurnKeep = 14000;  // streamed in at set-up
constexpr std::size_t kChurnWaves = 4;
constexpr std::size_t kChurnRowsPerWave = 1000;  // deleted and inserted
constexpr std::size_t kChurnQueries = 512;      // served per wave
constexpr std::size_t kChurnPassQueries = kChurnWaves * kChurnQueries;

/// Exact top-k over the published, non-tombstoned rows.
std::vector<NodeId> live_truth(const algas::core::MutableIndex& idx,
                               std::size_t query, std::vector<float>& dist) {
  const Dataset& ds = idx.dataset();
  const std::size_t n = idx.published();
  dist.resize(n);
  ds.distance_batch_range(ds.query(query), 0, n, dist);
  std::vector<std::pair<float, NodeId>> live;
  live.reserve(n);
  for (std::size_t v = 0; v < n; ++v) {
    if (!idx.tombstones().contains(static_cast<NodeId>(v))) {
      live.emplace_back(dist[v], static_cast<NodeId>(v));
    }
  }
  const std::size_t k = std::min(kTopk, live.size());
  std::partial_sort(live.begin(), live.begin() + static_cast<std::ptrdiff_t>(k),
                    live.end());
  std::vector<NodeId> out(k);
  for (std::size_t i = 0; i < k; ++i) out[i] = live[i].second;
  return out;
}

/// Host seconds per MutableIndex call kind in one pass.
struct ChurnTimes {
  double remove = 0.0, stage = 0.0, prepare = 0.0, apply = 0.0,
         compact = 0.0, serve = 0.0;
  double writes() const { return remove + stage + prepare + apply + compact; }
};

Report churn_sift(const Options& o, SpanLog* log) {
  using algas::core::MutableIndex;
  Report rep;
  Sheet sheet("churn-sift");
  SyntheticSpec spec = algas::sift_like_spec();
  spec.num_base = kChurnRows;
  spec.num_queries = kChurnQueries;
  spec.seed = derive_seed(o.seed, 1);
  const BuildConfig bcfg = build_config();
  const AlgasConfig acfg = slot_config();
  const std::size_t dim = spec.dim;
  const std::size_t churned = kChurnWaves * kChurnRowsPerWave;
  const std::uint64_t delete_seed = derive_seed(o.seed, 4);
  rep.info.push_back(dataset_line(spec));
  rep.info.push_back(config_line(acfg, bcfg));
  rep.info.push_back(strf(
      "churn: set-up streams in %zu rows; each pass restores that index, then "
      "%zu waves of (remove %zu, stage %zu, prepare, serve %zu queries closed "
      "loop, apply), then compact; delete order = seeded permutation "
      "(delete_seed=%s)",
      kChurnKeep, kChurnWaves, kChurnRowsPerWave, kChurnRowsPerWave,
      kChurnQueries, hex64(delete_seed).c_str()));

  SetupTimes st;
  std::optional<Dataset> full;
  std::optional<MutableIndex> idx;
  algas::core::InsertReport ins;
  std::vector<std::uint64_t> graph_sums;
  for (int i = 0; i < kSetups; ++i) {
    idx.reset();
    full.reset();
    ScopedSpan span(log, "setup");
    st.synth.push_back(timed(log, "dataset.make_synthetic", -1,
                             [&] { full.emplace(algas::make_synthetic(spec)); }));
    st.build.push_back(timed(log, "core.MutableIndex::insert", -1, [&] {
      Dataset serving(spec.name, dim, spec.metric);
      serving.mutable_queries() = full->queries();
      idx.emplace(std::move(serving), bcfg);
      ins = idx->insert({full->base().data(), kChurnKeep * dim});
    }));
    graph_sums.push_back(graph_checksum(idx->graph()));
  }
  check_setups_identical(rep, graph_sums);
  set_setup(sheet, st, "initial MutableIndex::insert");
  sheet.set("graph.build_evals", static_cast<double>(ins.scored_points),
            "InsertReport of the initial streamed insert");
  sheet.set("graph.build_evals_per_s",
            static_cast<double>(ins.scored_points) / median(st.build));
  const Dataset snap_ds = idx->dataset();
  const Graph snap_graph = idx->graph();
  idx.reset();

  std::vector<NodeId> victims(kChurnKeep);
  for (std::size_t i = 0; i < kChurnKeep; ++i) victims[i] = static_cast<NodeId>(i);
  algas::Rng rng(delete_seed);
  for (std::size_t i = kChurnKeep - 1; i > 0; --i) {
    std::swap(victims[i], victims[rng.next_below(i + 1)]);
  }
  victims.resize(churned);

  if (log != nullptr) {
    sheet.set("distance.evals_per_s",
              distance_probe(snap_ds, derive_seed(o.seed, 9), log),
              "Dataset::distance_batch, random gathers of 64 rows");
  }

  PassTimes host;  // serve + write seconds per pass (overhead estimate)
  std::vector<ChurnTimes> untraced, traced;
  Stability stable;
  std::vector<QueryRecord> first_recs;
  EngineReport first_counts;
  double first_span_ns = 0.0, first_util = 0.0, recall_sum = 0.0;
  std::size_t first_patched = 0;
  double gt_s = 0.0, replay_s = 0.0;
  std::size_t replayed = 0, recall_n = 0;
  bool delivered_ok = true;
  std::size_t removes_failed = 0, misses = 0, queries = 0;
  std::vector<float> scratch;
  const double probe_before = host_probe_ms();
  PassSchedule sched(o.seconds, o.trace);
  int passes = 0;
  while (sched.next()) {
    const int p = sched.pass();
    SpanLog* plog = sched.traced() ? log : nullptr;
    ChurnTimes t;
    Fnv results, virt;
    std::vector<QueryRecord> pass_recs;
    EngineReport counts;
    double span_ns = 0.0, util = 0.0;
    std::size_t patched = 0;
    {
      ScopedSpan pass_span(plog, "pass", p);
      MutableIndex index(snap_ds, snap_graph, bcfg);
      for (std::size_t w = 0; w < kChurnWaves; ++w) {
        const std::size_t first_row = w * kChurnRowsPerWave;
        for (std::size_t i = first_row; i < first_row + kChurnRowsPerWave; ++i) {
          t.remove += timed(plog, "core.MutableIndex::remove", p, [&] {
            if (!index.remove(victims[i])) ++removes_failed;
          });
        }
        t.stage += timed(plog, "core.MutableIndex::stage", p, [&] {
          index.stage({full->base().data() + (kChurnKeep + first_row) * dim,
                       kChurnRowsPerWave * dim});
        });
        algas::core::StagedBatch batch;
        t.prepare += timed(plog, "core.MutableIndex::prepare_next", p,
                           [&] { batch = index.prepare_next(); });
        EngineReport r;
        t.serve += timed(plog, "core.MutableIndex::serve", p,
                         [&] { r = index.serve(acfg, kChurnQueries); });
        const auto recs = std::span<const QueryRecord>(r.collector.records());
        const MissCount mc = count_misses(recs, {}, kChurnQueries, 1);
        delivered_ok = delivered_ok && mc.delivered == mc.attempted;
        queries += mc.attempted;
        misses += mc.misses();
        results.mix(result_checksum(recs));
        virt.mix(virtual_checksum(recs));
        mix_counters(virt, r);
        counts.sim_events += r.sim_events;
        counts.sim_stale_events += r.sim_stale_events;
        counts.pcie_bytes += r.pcie_bytes;
        span_ns += r.summary.span_ns;
        util += r.gpu_utilization / kChurnWaves;
        if (sched.warmup()) {
          // Checking work, outside every timed call: exact recall against
          // the rows this serve could return.
          const double g = timed(log, "dataset.live_ground_truth", p, [&] {
            for (const QueryRecord& rec : recs) {
              const auto truth = live_truth(index, rec.query_index, scratch);
              recall_sum += algas::metrics::recall_against(truth, rec.results,
                                                           kTopk);
              ++recall_n;
            }
          });
          gt_s += g;
        }
        if (sched.traced()) {
          ScopedSpan replay_span(log, "replay", p);
          AlgasConfig cfg = acfg;
          cfg.search.accept =
              algas::search::AcceptPredicate::deleted_only(&index.tombstones());
          const AlgasEngine mirror(index.dataset(), index.graph(), cfg);
          for (const QueryRecord& rec : recs) {
            ScopedSpan q(log, "search.multi_cta_search", p,
                         static_cast<int>(rec.query_index));
            replay_s += replay_search(mirror, rec.query_index);
            ++replayed;
          }
        }
        pass_recs.insert(pass_recs.end(), recs.begin(), recs.end());
        t.apply += timed(plog, "core.MutableIndex::apply", p,
                         [&] { index.apply(batch); });
        while (index.pending() > 0) {
          t.prepare += timed(plog, "core.MutableIndex::prepare_next", p,
                             [&] { batch = index.prepare_next(); });
          t.apply += timed(plog, "core.MutableIndex::apply", p,
                           [&] { index.apply(batch); });
        }
      }
      algas::core::CompactReport cr;
      t.compact += timed(plog, "core.MutableIndex::compact", p,
                         [&] { cr = index.compact(); });
      patched = cr.patched;
      results.mix(graph_checksum(index.graph()));
      virt.mix(cr.patched);
      virt.mix(cr.survivors);
    }
    rep.attempted += 2 * churned;
    ++passes;
    stable.observe(results.h, virt.h);
    if (sched.warmup()) {
      first_recs = std::move(pass_recs);
      first_counts = counts;
      first_span_ns = span_ns;
      first_util = util;
      first_patched = patched;
    } else {
      (sched.traced() ? traced : untraced).push_back(t);
      host.add(sched.traced(), t.serve + t.writes());
    }
  }
  const double probe_after = host_probe_ms();
  set_host_probe(rep, probe_before, probe_after);
  rep.attempted += queries;
  rep.failed += misses + removes_failed;

  stable.report(rep, passes);
  rep.check("delivered_equals_attempted", delivered_ok);
  check_no_misses(rep, misses, queries);
  rep.check("removes_applied", removes_failed == 0,
            strf("%zu removes found their row already deleted", removes_failed));
  const double recall = recall_sum / static_cast<double>(recall_n);
  rep.check("recall_floor", recall >= 0.95,
            strf("live recall@10 %.4f >= 0.95", recall));

  auto per_pass = [](const std::vector<ChurnTimes>& v, auto field) {
    std::vector<double> out;
    for (const ChurnTimes& t : v) out.push_back(field(t));
    return out;
  };
  const double rows = static_cast<double>(2 * churned);
  const auto qps = per_pass(untraced, [](const ChurnTimes& t) {
    return kChurnPassQueries / t.serve;
  });
  const auto rps = per_pass(untraced, [&](const ChurnTimes& t) {
    return rows / t.writes();
  });
  rep.info.push_back(list_line("host_qps per untraced pass:", qps));
  rep.info.push_back(list_line("host_rows_per_s per untraced pass:", rps));
  sheet.set("host_qps", median(qps),
            spread_note(qps, "queries per second inside MutableIndex::serve"));
  sheet.set("host_rows_per_s", median(rps),
            spread_note(rps, "rows inserted + deleted per second of "
                             "remove/stage/prepare_next/apply/compact"));
  sheet.set("recall_at_10", recall,
            strf("against the live rows at each serve, %zu queries", recall_n));
  sheet.set("miss_rate",
            count_misses(first_recs, {}, kChurnPassQueries, 1).miss_rate(),
            "(attempted - served in deadline) / attempted; no deadline");
  set_virtual_latency(sheet, first_recs, kChurnPassQueries, false, kNoDeadline);
  sheet.set("virtual_goodput_qps",
            static_cast<double>(first_recs.size()) / (first_span_ns * 1e-9),
            "completions per modeled second of the four serves");
  set_search_counts(sheet, first_recs);
  first_counts.gpu_utilization = first_util;
  set_sim_counts(sheet, first_counts, first_recs.size());
  set_phase_tails(sheet, first_recs, kChurnPassQueries, kNoDeadline);
  sheet.set("dataset.gt_s", gt_s, "live ground truth, checking work");
  if (o.trace) {
    const double search_us = 1e6 * replay_s / static_cast<double>(replayed);
    sheet.set("search.us_per_query", search_us,
              strf("multi_cta_search replay with the tombstone predicate, "
                   "%zu queries",
                   replayed));
    const auto serve = [](const ChurnTimes& t) { return t.serve; };
    const auto writes = [](const ChurnTimes& t) { return t.writes(); };
    sheet.set("core.overhead_us_per_query",
              1e6 * median(per_pass(traced, serve)) /
                      kChurnPassQueries -
                  search_us,
              "estimate: serve time per query - search.us_per_query");
    const std::pair<const char*, double ChurnTimes::*> calls[] = {
        {"core.mutable.remove_s", &ChurnTimes::remove},
        {"core.mutable.stage_s", &ChurnTimes::stage},
        {"core.mutable.prepare_s", &ChurnTimes::prepare},
        {"core.mutable.apply_s", &ChurnTimes::apply},
        {"core.mutable.compact_s", &ChurnTimes::compact},
        {"core.mutable.serve_s", &ChurnTimes::serve},
    };
    for (const auto& [name, field] : calls) {
      sheet.set(name,
                median(per_pass(traced, [f = field](const ChurnTimes& t) {
                  return t.*f;
                })),
                "per pass, traced");
    }
    sheet.set("core.mutable.compact_patched",
              static_cast<double>(first_patched), "CompactReport, per pass");
    traced_line(rep, "host_qps", kChurnPassQueries,
                per_pass(untraced, serve), per_pass(traced, serve));
    traced_line(rep, "host_rows_per_s", rows, per_pass(untraced, writes),
                per_pass(traced, writes));
    sheet.set("trace.overhead",
              median(host.traced) / median(host.untraced) - 1.0,
              std::string(kOverheadNote) + " (serve + write calls)");
  }
  sheet.set("peak_rss_mb", peak_rss_mb(), "getrusage ru_maxrss");
  sheet.finish(rep, o.trace);
  return rep;
}

}  // namespace

std::vector<std::string> workload_names() {
  return {"closed-sift", "serve-glove-k4", "churn-sift"};
}

Report run_workload(const Options& opts, SpanLog* log) {
  if (opts.workload == "closed-sift") return closed_sift(opts, log);
  if (opts.workload == "serve-glove-k4") return serve_glove_k4(opts, log);
  if (opts.workload == "churn-sift") return churn_sift(opts, log);
  throw std::invalid_argument("unknown workload: " + opts.workload);
}

}  // namespace perfbench
