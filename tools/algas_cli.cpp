// algas_cli — operational front-end for the library.
//
//   algas_cli gen    --name sift --n 20000 --q 200 --out ds.abin
//   algas_cli gt     --dataset ds.abin --k 100 [--threads N] --out ds.abin
//   algas_cli import --name my --base b.fvecs --query q.fvecs
//                    [--gt gt.ivecs] [--metric l2|cosine|ip] --out ds.abin
//   algas_cli build  --dataset ds.abin --kind nsw|cagra --degree 32
//                    [--ef 64] [--storage f32|f16|int8] [--threads N]
//                    [--batch N] --out graph.agr
//                    (--threads 0 = ALGAS_BUILD_THREADS, then hardware; the
//                    graph is byte-identical for any thread count)
//   algas_cli stats  --dataset ds.abin [--graph graph.agr]
//   algas_cli search --dataset ds.abin --graph graph.agr [--engine algas|
//                    cagra|ganns|ivf] [--topk 16] [--list 128] [--slots 16]
//                    [--nparallel 4] [--beam 4] [--queries N] [--sync
//                    mirrored|naive|blocking] [--nprobe 8]
//                    [--storage f32|f16|int8]  (base-row codec; see DESIGN.md)
//                    [--trace out.json]  (SimTrace timeline; open in Perfetto)
//                    (--index idx.amx replaces --graph: serve a mutable-index
//                    snapshot, tombstones excluded from results)
//                    [--shards K]  (scatter-gather over K simulated devices;
//                    per-shard graphs are built from --degree/--ef/--threads,
//                    so --graph is not needed) [--fanout F] (probe only the
//                    F closest shards; 0 = all) [--router-centroids 8]
//                    [--filter cat=K | ts<T]  (serve only rows whose
//                    category equals K / timestamp is below T; needs a
//                    dataset with attributes. The engine filters DURING
//                    traversal with a selectivity-widened candidate list
//                    and reports recall against filtered ground truth.)
//   algas_cli insert --dataset ds.abin --rows new.fvecs
//                    [--index idx.amx | --graph graph.agr]  (start point;
//                    neither = bootstrap from an empty dataset)
//                    [--degree 32] [--ef 64] [--batch N] [--threads N]
//                    [--out-index idx.amx] [--out-dataset ds.abin]
//                    (outputs default to updating --index / --dataset
//                    in place; both files must travel together)
//   algas_cli delete --dataset ds.abin --index idx.amx --ids 3,17,42
//                    [--compact 1] [--out-index ...] [--out-dataset ...]
//   algas_cli serve  --dataset ds.abin [--arrival poisson|bursty]
//                    [--rate 1000] [--burst-rate 0] [--deadline-us 0]
//                    [--capacity N] [--policy reject|drop-oldest]
//                    [--high-priority 0.0] [--queries N] [--seed 1]
//                    [--shards 1] [--topk 16] [--list 128] [--slots 16]
//                    [--nparallel 4] [--beam 4] [--hosts 1]
//                    [--degree 32] [--ef 64] [--threads N]
//                    [--filter cat=K | ts<T]  (as in search)
//                    (open-loop run: queries arrive on the generated
//                    schedule; --capacity bounds the host queue and
//                    --deadline-us sheds/evicts late queries. Per-shard
//                    graphs are built from the construction flags.)
//
// Flag precedence follows the repo-wide rule (common/env.hpp): an explicit
// CLI flag wins, then the ALGAS_* environment variable, then the compiled
// default. Every command prints a short human-readable report to stdout.
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "algas.hpp"

using namespace algas;

namespace {

constexpr const char* kWholeNumber = "a whole non-negative number";

/// The one rule for every number the CLI reads: std::from_chars must take
/// the whole token and the value must be finite. Anything else throws,
/// naming `what` (the flag) and the token.
template <typename T>
T parse_number(const std::string& what, std::string_view token,
               const char* want) {
  T v{};
  const char* const end_of_token = token.data() + token.size();
  const auto [end, ec] = std::from_chars(token.data(), end_of_token, v);
  if (ec != std::errc{} || end != end_of_token ||
      !std::isfinite(static_cast<double>(v))) {
    throw std::invalid_argument(what + " wants " + want + ", got '" +
                                std::string(token) + "'");
  }
  return v;
}

/// Tiny --key value parser; flags are required unless a default is given.
class Args {
 public:
  Args(int argc, char** argv) {
    for (int i = 2; i + 1 < argc; i += 2) {
      if (std::strncmp(argv[i], "--", 2) != 0) {
        throw std::invalid_argument(std::string("expected flag, got ") +
                                    argv[i]);
      }
      values_[argv[i] + 2] = argv[i + 1];
    }
    if (argc >= 3 && (argc - 2) % 2 != 0) {
      throw std::invalid_argument("flags must come in --key value pairs");
    }
  }

  std::string get(const std::string& key) const {
    auto it = values_.find(key);
    if (it == values_.end()) {
      throw std::invalid_argument("missing required flag --" + key);
    }
    return it->second;
  }

  std::string get_or(const std::string& key, const std::string& dflt) const {
    auto it = values_.find(key);
    return it == values_.end() ? dflt : it->second;
  }

  /// A whole non-negative integer; anything else throws naming the flag.
  std::size_t get_size(const std::string& key, std::size_t dflt) const {
    return get_number(key, dflt, kWholeNumber);
  }

  /// A finite number; anything else throws naming the flag.
  double get_double(const std::string& key, double dflt) const {
    return get_number(key, dflt, "a finite number");
  }

  /// A required comma-separated list of row ids, each a whole number
  /// under parse_number's rule; an empty or bad item throws naming it.
  std::vector<NodeId> get_ids(const std::string& key) const {
    const std::string list = get(key);
    std::vector<NodeId> ids;
    for (std::size_t pos = 0; pos <= list.size();) {
      const std::size_t comma = std::min(list.find(',', pos), list.size());
      ids.push_back(parse_number<NodeId>(
          "--" + key, std::string_view(list).substr(pos, comma - pos),
          kWholeNumber));
      pos = comma + 1;
    }
    return ids;
  }

 private:
  template <typename T>
  T get_number(const std::string& key, T dflt, const char* want) const {
    auto it = values_.find(key);
    if (it == values_.end()) return dflt;
    return parse_number<T>("--" + key, it->second, want);
  }

  std::map<std::string, std::string> values_;
};

Metric parse_metric(const std::string& s) {
  if (s == "l2") return Metric::kL2;
  if (s == "cosine") return Metric::kCosine;
  if (s == "ip") return Metric::kInnerProduct;
  throw std::invalid_argument("unknown metric: " + s);
}

GraphKind parse_kind(const std::string& s) {
  if (s == "nsw") return GraphKind::kNsw;
  if (s == "cagra") return GraphKind::kCagra;
  throw std::invalid_argument("unknown graph kind: " + s);
}

/// Apply --storage to a freshly loaded dataset. Quantization happens after
/// load so cached ground truth stays f32-exact; recall then measures the
/// codec's loss (see DESIGN.md "Quantized storage and the recall gate").
/// Default comes from ALGAS_STORAGE (flag > env > "f32").
void apply_storage(Dataset& ds, const Args& args) {
  const std::string codec =
      args.get_or("storage", RuntimeOptions::from_env().storage);
  ds.set_storage(parse_storage_codec(codec));
}

sim::ArrivalKind parse_arrival(const std::string& s) {
  if (s == "poisson") return sim::ArrivalKind::kPoisson;
  if (s == "bursty") return sim::ArrivalKind::kBursty;
  throw std::invalid_argument("unknown arrival process: " + s);
}

core::ShedPolicy parse_policy(const std::string& s) {
  if (s == "reject") return core::ShedPolicy::kRejectNew;
  if (s == "drop-oldest") return core::ShedPolicy::kDropOldest;
  throw std::invalid_argument("unknown shed policy: " + s);
}

core::HostSync parse_sync(const std::string& s) {
  if (s == "mirrored") return core::HostSync::kPollMirrored;
  if (s == "naive") return core::HostSync::kPollNaive;
  if (s == "blocking") return core::HostSync::kBlocking;
  throw std::invalid_argument("unknown sync mode: " + s);
}

/// Build the --filter bitset over base rows: "cat=K" (category equality)
/// or "ts<T" (timestamp strictly below T). Returns nullptr when no filter
/// was requested. The bitset must outlive any engine configured with it —
/// callers keep the unique_ptr alive across the run.
std::unique_ptr<NodeBitset> parse_filter(const Dataset& ds,
                                                 const Args& args) {
  const std::string spec = args.get_or("filter", "");
  if (spec.empty()) return nullptr;
  if (!ds.has_attributes()) {
    throw std::invalid_argument(
        "--filter needs a dataset with attributes; regenerate it with "
        "`algas_cli gen` (synthetic datasets attach them automatically)");
  }
  auto bits = std::make_unique<NodeBitset>(ds.num_base());
  if (spec.rfind("cat=", 0) == 0) {
    const auto want = parse_number<std::uint32_t>(
        "--filter cat=K", std::string_view(spec).substr(4), kWholeNumber);
    const auto& cats = ds.categories();
    for (std::size_t i = 0; i < cats.size(); ++i) {
      if (cats[i] == want) bits->set(static_cast<NodeId>(i));
    }
  } else if (spec.rfind("ts<", 0) == 0) {
    const auto limit = parse_number<std::uint32_t>(
        "--filter ts<T", std::string_view(spec).substr(3), kWholeNumber);
    const auto& ts = ds.timestamps();
    for (std::size_t i = 0; i < ts.size(); ++i) {
      if (ts[i] < limit) bits->set(static_cast<NodeId>(i));
    }
  } else {
    throw std::invalid_argument("bad --filter (want cat=K or ts<T): " + spec);
  }
  return bits;
}

/// Score served results against predicate-restricted exact ground truth
/// (computed on the fly — the attached unfiltered gt does not apply under
/// a filter) and print the filtered-recall line.
void print_filtered_recall(const Dataset& ds,
                           const search::AcceptPredicate& accept,
                           const core::EngineReport& rep, std::size_t topk) {
  const std::size_t accepted =
      accept.accepted_in_range(0, static_cast<NodeId>(ds.num_base()));
  const auto gt = compute_filtered_ground_truth(ds, topk, accept);
  std::printf("filter: %zu/%zu rows accepted (%.2f%%) | filtered recall@%zu "
              "%.4f over %zu served\n",
              accepted, ds.num_base(),
              100.0 * static_cast<double>(accepted) /
                  static_cast<double>(std::max<std::size_t>(ds.num_base(), 1)),
              topk, metrics::served_recall(gt, rep.collector, topk),
              rep.summary.served);
}

/// BuildConfig from the shared construction flags (build, insert, delete,
/// and the per-shard graphs of search/serve). --threads defaults to the
/// environment (flag > env > default).
BuildConfig parse_build_config(const Args& args) {
  BuildConfig cfg;
  cfg.degree = args.get_size("degree", 32);
  cfg.ef_construction = args.get_size("ef", 64);
  cfg.threads =
      args.get_size("threads", RuntimeOptions::from_env().build_threads);
  cfg.insert_batch = args.get_size("batch", cfg.insert_batch);
  return cfg;
}

/// AlgasConfig from the shared engine flags (search and serve).
core::AlgasConfig parse_engine_config(const Args& args,
                                      const search::AcceptPredicate& accept,
                                      sim::Tracer* trace) {
  core::AlgasConfig cfg;
  cfg.search.topk = args.get_size("topk", 16);
  cfg.search.candidate_len = args.get_size("list", 128);
  cfg.search.beam_width = args.get_size("beam", 4);
  cfg.search.accept = accept;
  cfg.slots = args.get_size("slots", 16);
  cfg.n_parallel = args.get_size("nparallel", 0);
  cfg.host_threads = args.get_size("hosts", 1);
  cfg.host_sync = parse_sync(args.get_or("sync", "mirrored"));
  cfg.tracer = trace;
  return cfg;
}

int cmd_gen(const Args& args) {
  const std::string name = args.get("name");
  SyntheticSpec spec;
  if (name == "sift") spec = sift_like_spec();
  else if (name == "gist") spec = gist_like_spec();
  else if (name == "glove") spec = glove_like_spec();
  else if (name == "nytimes") spec = nytimes_like_spec();
  else throw std::invalid_argument("unknown generator: " + name);
  spec.num_base = args.get_size("n", 20000);
  spec.num_queries = args.get_size("q", 200);
  const Dataset ds = make_synthetic(spec);
  save_dataset(ds, args.get("out"));
  std::printf("wrote %s: %s\n", args.get("out").c_str(),
              ds.describe().c_str());
  return 0;
}

int cmd_gt(const Args& args) {
  Dataset ds = load_dataset(args.get("dataset"));
  compute_ground_truth(ds, args.get_size("k", 100),
                       args.get_size("threads", 0));
  save_dataset(ds, args.get("out"));
  std::printf("attached gt@%zu: %s\n", ds.gt_k(), ds.describe().c_str());
  return 0;
}

int cmd_import(const Args& args) {
  const Dataset ds = load_texmex(
      args.get("name"), args.get("base"), args.get("query"),
      args.get_or("gt", ""), parse_metric(args.get_or("metric", "l2")));
  save_dataset(ds, args.get("out"));
  std::printf("imported %s: %s\n", args.get("out").c_str(),
              ds.describe().c_str());
  return 0;
}

int cmd_build(const Args& args) {
  Dataset ds = load_dataset(args.get("dataset"));
  apply_storage(ds, args);
  const BuildReport report =
      build_graph(parse_kind(args.get("kind")), ds, parse_build_config(args));
  const Graph& g = report.graph;
  g.save(args.get("out"));
  const auto stats = g.stats();
  std::printf("wrote %s: %zu nodes, avg degree %.1f, %.1f%% reachable\n",
              args.get("out").c_str(), g.num_nodes(), stats.avg_degree,
              100.0 * stats.reachable_fraction);
  std::printf("build: %.2fs wall (kernel %s) | virtual %.1fms batched "
              "vs %.1fms serial (modeled %.0fx) | %zu batches | %zu distance "
              "evals | %zu link evals\n",
              report.wall_build_s, distance_kernel_name(),
              report.virtual_build_ns / 1e6, report.serial_build_ns / 1e6,
              report.speedup(), report.batches, report.scored_points,
              report.link_evals);
  return 0;
}

int cmd_stats(const Args& args) {
  const Dataset ds = load_dataset(args.get("dataset"));
  std::printf("dataset: %s\n", ds.describe().c_str());
  const std::string graph_path = args.get_or("graph", "");
  if (!graph_path.empty()) {
    const Graph g = Graph::load(graph_path);
    const auto stats = g.stats();
    std::printf("graph:   %zu nodes, degree %zu (avg %.1f, min %zu), "
                "entry %u, %.2f%% reachable\n",
                g.num_nodes(), g.degree(), stats.avg_degree,
                stats.min_degree, g.entry_point(),
                100.0 * stats.reachable_fraction);
  }
  return 0;
}

void print_report(const char* engine_name, const core::EngineReport& rep) {
  std::printf("%s: %zu queries | storage %s (kernel %s) | recall %.4f | "
              "latency mean %.1fus p99 %.1fus | throughput %.0f qps | pcie "
              "txns %llu\n",
              engine_name, rep.summary.queries,
              storage_codec_name(rep.storage), distance_kernel_name(),
              rep.recall, rep.summary.mean_service_us,
              rep.summary.p99_service_us, rep.summary.throughput_qps,
              static_cast<unsigned long long>(rep.pcie_transactions));
}

/// Load the mutable index named by --index, or adopt --graph, or (neither)
/// bootstrap from an empty dataset. The dataset must be the one the
/// index/graph was built over — the loaders validate the row counts agree.
core::MutableIndex open_index(Dataset ds, const Args& args) {
  const std::string index_path = args.get_or("index", "");
  const std::string graph_path = args.get_or("graph", "");
  BuildConfig cfg = parse_build_config(args);
  if (!index_path.empty()) {
    return core::MutableIndex::load(index_path, std::move(ds), cfg);
  }
  if (!graph_path.empty()) {
    return core::MutableIndex(std::move(ds), Graph::load(graph_path), cfg);
  }
  return core::MutableIndex(std::move(ds), cfg);
}

int cmd_insert(const Args& args) {
  const std::string ds_path = args.get("dataset");
  core::MutableIndex idx = open_index(load_dataset(ds_path), args);

  std::size_t row_dim = 0;
  const std::vector<float> rows = read_fvecs(args.get("rows"), row_dim);
  if (row_dim != idx.dataset().dim() && idx.dataset().dim() != 0) {
    throw std::invalid_argument("row dim mismatch: rows are " +
                                std::to_string(row_dim) + "d, dataset is " +
                                std::to_string(idx.dataset().dim()) + "d");
  }
  const auto report = idx.insert(rows);
  std::printf("inserted %zu rows in %zu batches | %zu distance evals | "
              "%zu link evals | virtual %.1fms batched vs %.1fms serial | "
              "now %zu published, %zu live\n",
              report.inserted, report.batches, report.scored_points,
              report.link_evals, report.virtual_build_ns / 1e6,
              report.serial_build_ns / 1e6, idx.published(), idx.live());

  // The snapshot and the (now longer) dataset only make sense as a pair.
  const std::string out_index =
      args.get_or("out-index", args.get_or("index", "index.amx"));
  const std::string out_ds = args.get_or("out-dataset", ds_path);
  save_dataset(idx.dataset(), out_ds);
  idx.save(out_index);
  std::printf("wrote %s + %s (epoch %llu)\n", out_index.c_str(),
              out_ds.c_str(), static_cast<unsigned long long>(idx.epoch()));
  return 0;
}

int cmd_delete(const Args& args) {
  const std::string ds_path = args.get("dataset");
  const std::vector<NodeId> ids = args.get_ids("ids");
  core::MutableIndex idx = open_index(load_dataset(ds_path), args);

  std::size_t removed = 0, already = 0;
  for (const NodeId v : ids) (idx.remove(v) ? removed : already)++;
  std::printf("tombstoned %zu ids (%zu were already dead) | %zu live of "
              "%zu published\n",
              removed, already, idx.live(), idx.published());

  bool dataset_changed = false;
  if (args.get_size("compact", 0) != 0) {
    const auto rep = idx.compact();
    dataset_changed = rep.dropped > 0;
    std::printf("compacted: dropped %zu, %zu survivors, %zu rows "
                "re-selected\n",
                rep.dropped, rep.survivors, rep.patched);
  }

  // get_or, not get: a graph-opened delete has no --index to fall back on,
  // and C++ would evaluate (and throw from) the fallback eagerly.
  const std::string out_index =
      args.get_or("out-index", args.get_or("index", ""));
  if (out_index.empty()) {
    throw std::invalid_argument("delete needs --out-index (or --index)");
  }
  idx.save(out_index);
  std::printf("wrote %s (epoch %llu)\n", out_index.c_str(),
              static_cast<unsigned long long>(idx.epoch()));
  if (dataset_changed) {
    // Compaction remapped row ids, so the paired dataset must be rewritten.
    const std::string out_ds = args.get_or("out-dataset", ds_path);
    save_dataset(idx.dataset(), out_ds);
    std::printf("wrote %s (rows remapped by compaction)\n", out_ds.c_str());
  }
  return 0;
}

int cmd_search(const Args& args) {
  Dataset ds = load_dataset(args.get("dataset"));
  apply_storage(ds, args);
  if (!ds.has_ground_truth()) {
    std::printf("note: dataset has no ground truth; recall prints as 0 "
                "(run `algas_cli gt` first)\n");
  }
  const std::string engine = args.get_or("engine", "algas");
  const std::size_t queries = args.get_size("queries", ds.num_queries());

  // --trace: explicit SimTrace sink, written once the run completes. Pure
  // observer — identical results and virtual time with or without it.
  const std::string trace_path = args.get_or("trace", "");
  sim::Tracer tracer;
  sim::Tracer* const trace = trace_path.empty() ? nullptr : &tracer;

  // --filter: attribute predicate applied during traversal. The bitset
  // lives here so it outlives whichever engine the run wires it into.
  const auto filter = parse_filter(ds, args);
  const search::AcceptPredicate accept{filter.get()};
  if (filter != nullptr && engine != "algas") {
    throw std::invalid_argument(
        "--filter is traversal-integrated and only serves the algas engine "
        "(the ivf post-filter baseline lives in bench_filtered)");
  }
  const core::AlgasConfig acfg = parse_engine_config(args, accept, trace);
  const std::size_t topk = acfg.search.topk;

  if (engine == "ivf") {
    if (trace) {
      std::printf("note: the ivf baseline is untraced; --trace ignored\n");
    }
    baselines::IvfConfig cfg;
    cfg.topk = topk;
    cfg.nprobe = args.get_size("nprobe", 8);
    cfg.batch_size = acfg.slots;
    baselines::IvfEngine e(ds, cfg);
    print_report("ivf", e.run_closed_loop(queries));
    return 0;
  }

  // --index: serve a mutable-index snapshot — same engine, but tombstoned
  // rows are excluded from results and the snapshot's graph is used.
  const std::string index_path = args.get_or("index", "");
  const std::size_t shards = args.get_size("shards", 0);
  if (!index_path.empty()) {
    if (engine != "algas") {
      throw std::invalid_argument("--index only serves the algas engine");
    }
    core::MutableIndex idx = core::MutableIndex::load(
        index_path, std::move(ds), parse_build_config(args));
    std::printf("index: epoch %llu | %zu live of %zu published\n",
                static_cast<unsigned long long>(idx.epoch()), idx.live(),
                idx.published());
    const core::EngineReport rep = idx.serve(acfg, queries);
    print_report("algas", rep);
    if (filter != nullptr) {
      // Truth must honor the tombstones serve() conjoined in, or deleted
      // rows would count as misses.
      print_filtered_recall(idx.dataset(),
                            accept.with_tombstones(&idx.tombstones()), rep,
                            topk);
    }
  } else if (shards > 0) {
    // --shards: scatter-gather over K simulated devices. Per-shard graphs
    // are built here (deterministically, from the shared build flags); a
    // monolithic --graph cannot be split, so the flag is ignored.
    if (engine != "algas") {
      throw std::invalid_argument("--shards only serves the algas engine");
    }
    core::ShardedConfig scfg;
    scfg.base = acfg;
    scfg.shards = shards;
    scfg.fanout = args.get_size("fanout", 0);
    scfg.router_centroids = args.get_size("router-centroids", 8);
    scfg.build = parse_build_config(args);
    core::ShardedEngine e(ds, scfg);
    for (std::size_t s = 0; s < shards; ++s) {
      const auto r = e.partition().range(s);
      std::printf("shard %zu: rows [%u, %u) | %zu nodes\n", s, r.begin,
                  r.end, e.shard_graph(s).num_nodes());
    }
    const core::ShardedReport rep = e.run_closed_loop(queries);
    print_report("algas-sharded", rep.merged);
    if (filter != nullptr) {
      print_filtered_recall(ds, accept, rep.merged, topk);
    }
    std::printf("scatter-gather: mean fanout %.2f | %zu merges "
                "(%.1fus busy) | host bus %llu txns, %llu bytes, %.1f%% "
                "busy\n",
                rep.mean_fanout, rep.merges, rep.merge_busy_ns / 1e3,
                static_cast<unsigned long long>(rep.bus_transactions),
                static_cast<unsigned long long>(rep.bus_bytes),
                100.0 * rep.bus_utilization);
  } else {
    const Graph g = Graph::load(args.get("graph"));
    if (engine == "algas") {
      core::AlgasEngine e(ds, g, acfg);
      std::printf("plan: %s\n", e.plan().describe().c_str());
      const core::EngineReport rep = e.run_closed_loop(queries);
      print_report("algas", rep);
      if (filter != nullptr) {
        print_filtered_recall(ds, accept, rep, topk);
      }
    } else {
      baselines::StaticConfig cfg;
      cfg.search.topk = topk;
      cfg.search.candidate_len = acfg.search.candidate_len;
      cfg.batch_size = acfg.slots;
      cfg.tracer = trace;
      if (engine == "cagra") {
        cfg.n_parallel = args.get_size("nparallel", 4);
      } else if (engine == "ganns") {
        cfg = baselines::ganns_config(cfg);
      } else {
        throw std::invalid_argument("unknown engine: " + engine);
      }
      baselines::StaticBatchEngine e(ds, g, cfg);
      print_report(engine.c_str(), e.run_closed_loop(queries));
    }
  }
  if (trace) {
    trace->save(trace_path);
    std::printf("wrote trace %s (%llu events); open in "
                "https://ui.perfetto.dev or chrome://tracing\n",
                trace_path.c_str(),
                static_cast<unsigned long long>(trace->events_recorded()));
  }
  return 0;
}

int cmd_serve(const Args& args) {
  Dataset ds = load_dataset(args.get("dataset"));
  apply_storage(ds, args);
  if (!ds.has_ground_truth()) {
    std::printf("note: dataset has no ground truth; recall prints as 0 "
                "(run `algas_cli gt` first)\n");
  }

  core::ServingConfig cfg;
  cfg.arrival.kind = parse_arrival(args.get_or("arrival", "poisson"));
  cfg.arrival.rate_qps = args.get_double("rate", 1000.0);
  cfg.arrival.burst_rate_qps = args.get_double("burst-rate", 0.0);
  cfg.arrival.seed = args.get_size("seed", 1);
  cfg.deadline_us = args.get_double("deadline-us", 0.0);
  cfg.high_priority_fraction = args.get_double("high-priority", 0.0);
  cfg.num_queries = args.get_size("queries", 0);

  const auto filter = parse_filter(ds, args);
  const search::AcceptPredicate accept{filter.get()};

  core::AlgasConfig& base = cfg.sharded.base;
  base = parse_engine_config(args, accept, nullptr);
  // An unbounded queue is the closed-loop default; serving mode (the
  // AdmissionActor front-end) activates only when --capacity is given.
  base.admission.capacity =
      args.get_size("capacity", core::kUnboundedQueue);
  base.admission.policy = parse_policy(args.get_or("policy", "reject"));

  cfg.sharded.shards = args.get_size("shards", 1);
  cfg.sharded.fanout = args.get_size("fanout", 0);
  cfg.sharded.router_centroids = args.get_size("router-centroids", 8);
  cfg.sharded.build = parse_build_config(args);

  core::ServingEngine e(ds, cfg);
  const core::ServingReport rep = e.run();
  const metrics::RunSummary& s = rep.sharded.merged.summary;
  char deadline_buf[32] = "none";
  if (cfg.deadline_us > 0.0) {
    std::snprintf(deadline_buf, sizeof deadline_buf, "%.0fus",
                  cfg.deadline_us);
  }
  char queue_buf[32] = "unbounded";
  if (base.admission.bounded()) {
    std::snprintf(queue_buf, sizeof queue_buf, "%zu",
                  base.admission.capacity);
  }
  std::printf("workload: %s arrivals, %zu queries, offered %.0f qps, "
              "deadline %s, queue %s/%s\n",
              sim::arrival_kind_name(cfg.arrival.kind), rep.arrivals.size(),
              rep.offered_qps, deadline_buf, queue_buf,
              core::shed_policy_name(base.admission.policy));
  print_report("serve", rep.sharded.merged);
  if (filter != nullptr) {
    print_filtered_recall(ds, accept, rep.sharded.merged, base.search.topk);
  }
  std::printf("serving: goodput %.0f qps | shed %.1f%% (%zu queue, %zu "
              "deadline, %zu evicted) | deadline miss %.1f%% | latency "
              "p99 %.1fus p999 %.1fus\n",
              s.goodput_qps, 100.0 * s.shed_rate, s.shed_queue,
              s.shed_deadline, s.evicted, 100.0 * s.deadline_miss_rate,
              s.p99_latency_us, s.p999_latency_us);
  return 0;
}

void usage() {
  std::printf(
      "usage: algas_cli <gen|gt|import|build|stats|search|insert|delete|"
      "serve> --key value ...\n"
      "see the header comment of tools/algas_cli.cpp for full flag lists\n");
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    usage();
    return 2;
  }
  const std::string cmd = argv[1];
  try {
    Args args(argc, argv);
    if (cmd == "gen") return cmd_gen(args);
    if (cmd == "gt") return cmd_gt(args);
    if (cmd == "import") return cmd_import(args);
    if (cmd == "build") return cmd_build(args);
    if (cmd == "stats") return cmd_stats(args);
    if (cmd == "search") return cmd_search(args);
    if (cmd == "insert") return cmd_insert(args);
    if (cmd == "delete") return cmd_delete(args);
    if (cmd == "serve") return cmd_serve(args);
    usage();
    return 2;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
