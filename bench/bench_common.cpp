#include "bench_common.hpp"

#include <algorithm>
#include <array>
#include <bit>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>

#include "common/env.hpp"
#include "dataset/registry.hpp"
#include "simgpu/trace.hpp"

namespace algas::bench {

BuildConfig bench_build_config() {
  BuildConfig cfg;
  cfg.degree = 32;
  cfg.ef_construction = 64;
  return cfg;
}

std::vector<std::string> selected_datasets() {
  const std::string raw = RuntimeOptions::from_env().datasets;
  std::vector<std::string> names;
  std::stringstream ss(raw);
  std::string item;
  const auto known = bench_dataset_names();
  while (std::getline(ss, item, ',')) {
    if (item.empty()) continue;
    if (std::find(known.begin(), known.end(), item) == known.end()) {
      throw std::invalid_argument("unknown dataset in ALGAS_DATASETS: " +
                                  item);
    }
    names.push_back(item);
  }
  if (names.empty()) names = known;
  return names;
}

StorageCodec storage_codec() {
  return parse_storage_codec(RuntimeOptions::from_env().storage);
}

const Dataset& dataset(const std::string& name) {
  static std::map<std::string, Dataset> cache;
  auto it = cache.find(name);
  if (it == cache.end()) {
    std::cerr << "[bench] loading dataset " << name << "...\n";
    it = cache.emplace(name, load_bench_dataset(name)).first;
    // Quantize after load/ground-truth so recall measures the codec's
    // loss against f32-exact neighbors.
    it->second.set_storage(storage_codec());
    std::cerr << "[bench] " << it->second.describe() << "\n";
  }
  return it->second;
}

const Graph& graph(const std::string& name, GraphKind kind) {
  static std::map<std::string, Graph> cache;
  const std::string key = name + "/" + graph_kind_name(kind);
  auto it = cache.find(key);
  if (it == cache.end()) {
    std::cerr << "[bench] building/loading graph " << key << "...\n";
    it = cache
             .emplace(key, load_or_build_graph(kind, dataset(name),
                                               bench_build_config())
                               .graph)
             .first;
  }
  return it->second;
}

std::size_t query_budget(const Dataset& ds, std::size_t fallback) {
  const std::size_t configured = RuntimeOptions::from_env().queries;
  const std::size_t want = configured == 0 ? fallback : configured;
  return std::min(want, ds.num_queries());
}

std::vector<core::PendingQuery> closed_loop(std::size_t n) {
  std::vector<core::PendingQuery> arrivals;
  arrivals.reserve(n);
  for (std::size_t i = 0; i < n; ++i) arrivals.push_back({i, 0.0});
  return arrivals;
}

void print_header(const std::string& bench, const std::string& what) {
  metrics::print_meta(std::cout, "bench", bench);
  metrics::print_meta(std::cout, "reproduces", what);
  metrics::print_meta(std::cout, "scale",
                      std::to_string(dataset_scale()));
  // Emitted only for quantized runs: the default f32 TSV must stay
  // byte-identical to the pre-codec output.
  if (storage_codec() != StorageCodec::kF32) {
    metrics::print_meta(std::cout, "storage",
                        storage_codec_name(storage_codec()));
  }
  metrics::print_meta(std::cout, "note",
                      "latency/throughput are virtual-time (simulated GPU); "
                      "recall is a real measurement");
  // Announce on stderr, never stdout: the TSV must stay byte-identical
  // whether or not ALGAS_TRACE is set (tracing is a pure observer).
  if (!sim::trace_default_path().empty()) {
    std::cerr << "[bench] SimTrace enabled, writing "
              << sim::trace_default_path() << "\n";
  }
}

core::AlgasConfig algas_config(std::size_t batch, std::size_t candidate_len,
                               std::size_t topk, std::size_t n_parallel,
                               std::size_t beam_width) {
  core::AlgasConfig cfg;
  cfg.search.topk = topk;
  cfg.search.candidate_len = candidate_len;
  cfg.search.beam_width = beam_width;
  cfg.search.offset_beam = 24;
  cfg.slots = batch;
  cfg.host_threads = batch >= 32 ? 2 : 1;
  cfg.n_parallel = n_parallel;
  cfg.host_sync = core::HostSync::kPollMirrored;
  return cfg;
}

std::string us(double v) {
  std::ostringstream out;
  out.setf(std::ios::fixed);
  out.precision(1);
  out << v;
  return out.str();
}

void Fnv::mix(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xffULL;
    h *= 0x100000001b3ULL;
  }
}

std::string hex64(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

double seconds_since(std::chrono::steady_clock::time_point t0) {
  const auto dt = std::chrono::steady_clock::now() - t0;
  return std::chrono::duration<double>(dt).count();
}

namespace {

constexpr double kMinTrialSeconds = 0.2;
constexpr std::size_t kTrials = 5;

Trial repeat_pass(const std::function<std::size_t()>& pass) {
  const auto t0 = std::chrono::steady_clock::now();
  Trial t;
  do {
    t.work += static_cast<double>(pass());
    ++t.passes;
    t.wall_s = seconds_since(t0);
  } while (t.wall_s < kMinTrialSeconds);
  return t;
}

}  // namespace

Trial median_trial(const std::function<std::size_t()>& pass) {
  std::array<Trial, kTrials> trials;
  for (auto& t : trials) t = repeat_pass(pass);
  std::sort(trials.begin(), trials.end(), [](const Trial& a, const Trial& b) {
    return a.rate() < b.rate();
  });
  return trials[kTrials / 2];
}

std::vector<const metrics::QueryRecord*> by_query_index(
    const metrics::Collector& c) {
  std::vector<const metrics::QueryRecord*> recs;
  recs.reserve(c.size());
  for (const auto& r : c.records()) recs.push_back(&r);
  std::sort(recs.begin(), recs.end(),
            [](const metrics::QueryRecord* a, const metrics::QueryRecord* b) {
              return a->query_index < b->query_index;
            });
  return recs;
}

std::uint64_t results_checksum(const metrics::Collector& c) {
  Fnv f;
  for (const auto* r : by_query_index(c)) {
    f.mix(r->query_index);
    f.mix(static_cast<std::uint64_t>(r->disposition));
    f.mix(r->results.size());
    for (const KV& kv : r->results) {
      f.mix(kv.id());
      f.mix(std::bit_cast<std::uint32_t>(kv.dist));
    }
  }
  return f.h;
}

JsonReport::JsonReport(const std::string& name)
    : path_(RuntimeOptions::from_env().bench_out) {
  if (path_.empty()) path_ = "BENCH_" + name + ".json";
  out_.setf(std::ios::fixed);
  out_ << "{";
  frames_.push_back({false, false});
}

void JsonReport::start_entry(std::string_view key) {
  Frame& f = frames_.back();
  if (!f.empty) out_ << (f.is_inline ? ", " : ",");
  f.empty = false;
  if (!f.is_inline) out_ << "\n" << std::string(2 * frames_.size(), ' ');
  if (!f.is_array) out_ << '"' << key << "\": ";
}

JsonReport& JsonReport::text(std::string_view key, std::string_view v) {
  start_entry(key);
  out_ << '"' << v << '"';
  return *this;
}

JsonReport& JsonReport::number(std::string_view key, double v,
                               int decimals) {
  start_entry(key);
  out_.precision(decimals);
  out_ << v;
  return *this;
}

JsonReport& JsonReport::integer(std::string_view key, std::uint64_t v) {
  start_entry(key);
  out_ << v;
  return *this;
}

JsonReport& JsonReport::boolean(std::string_view key, bool v) {
  start_entry(key);
  out_ << (v ? "true" : "false");
  return *this;
}

JsonReport& JsonReport::object(std::string_view key) {
  return begin(key, false);
}

JsonReport& JsonReport::array(std::string_view key) {
  return begin(key, true);
}

JsonReport& JsonReport::begin(std::string_view key, bool is_array) {
  start_entry(key);
  const bool is_inline = frames_.back().is_array || frames_.back().is_inline;
  frames_.push_back({is_array, is_inline});
  out_ << (is_array ? '[' : '{');
  return *this;
}

JsonReport& JsonReport::close() {
  const Frame f = frames_.back();
  frames_.pop_back();
  if (!f.is_inline) out_ << "\n" << std::string(2 * frames_.size(), ' ');
  out_ << (f.is_array ? ']' : '}');
  return *this;
}

void JsonReport::write(std::ostream& log) {
  if (frames_.size() != 1) {
    throw std::logic_error("JsonReport: unclosed object or array");
  }
  boolean("end", true);
  out_ << "\n}\n";
  std::ofstream file(path_, std::ios::trunc);
  if (!(file << out_.str())) {
    throw std::runtime_error("cannot write " + path_);
  }
  log << "wrote " << path_ << "\n";
}

}  // namespace algas::bench
