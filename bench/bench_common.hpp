// Shared harness support for the per-figure bench binaries.
//
// Every bench prints TSV to stdout: "#"-prefixed metadata lines, then a
// header row, then one row per plotted point. Environment knobs are read
// through RuntimeOptions::from_env() (see common/env.hpp for the full list
// and precedence rule): ALGAS_SCALE, ALGAS_QUERIES, ALGAS_DATASETS,
// ALGAS_CACHE_DIR, ALGAS_STORAGE, ALGAS_BUILD_THREADS. The gate benches
// also write a JsonReport, which scripts/check_bench.py checks against the
// gate block of their bench/*_baseline.json.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/engine.hpp"
#include "dataset/dataset.hpp"
#include "graph/builder.hpp"
#include "metrics/collector.hpp"
#include "metrics/table.hpp"

namespace algas::bench {

/// Graph build parameters every bench shares (so disk caches are reused).
BuildConfig bench_build_config();

/// Dataset names selected via ALGAS_DATASETS (validated).
std::vector<std::string> selected_datasets();

/// Base-row storage codec selected via ALGAS_STORAGE (validated).
StorageCodec storage_codec();

/// Load (cache-backed) the named bench dataset; kept in-process.
const Dataset& dataset(const std::string& name);

/// Load or build (cache-backed) a graph for the named dataset.
const Graph& graph(const std::string& name, GraphKind kind);

/// min(ALGAS_QUERIES override, dataset queries, fallback).
std::size_t query_budget(const Dataset& ds, std::size_t fallback);

/// n queries all arriving at t=0 (closed loop).
std::vector<core::PendingQuery> closed_loop(std::size_t n);

/// Standard metadata header: bench name, dataset line, scale.
void print_header(const std::string& bench, const std::string& what);

/// Standard engine configurations used across the comparison benches so
/// every figure compares identical search work. n_parallel defaults to 4
/// CTAs per query (the small-batch sweet spot); beam extend is on for
/// ALGAS (width 4, offset 24) and off for the baselines, as in the paper.
core::AlgasConfig algas_config(std::size_t batch, std::size_t candidate_len,
                               std::size_t topk = 16,
                               std::size_t n_parallel = 4,
                               std::size_t beam_width = 4);


/// Format helper: microseconds with 1 decimal.
std::string us(double v);

/// FNV-1a 64 over 8-byte little-endian words: the checksum behind every
/// *_checksum value a gate bench reports. Each bench keeps its own mix
/// order, since the committed baselines pin the resulting values.
struct Fnv {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  void mix(std::uint64_t v);
};

/// `v` as 16 lowercase hex digits (how checksums appear in the JSON).
std::string hex64(std::uint64_t v);

/// Wall seconds elapsed since `t0` on the steady clock.
double seconds_since(std::chrono::steady_clock::time_point t0);

/// One timed trial: `passes` whole passes doing `work` units in `wall_s`.
struct Trial {
  std::size_t passes = 0;
  double work = 0.0;
  double wall_s = 0.0;
  double rate() const { return work / wall_s; }
};

/// The repeated-trial timer behind the wall-clock floors: 5 trials, each
/// repeating `pass` (one whole pass of a section, returning the work units
/// it did) until at least 0.2 s have elapsed, at least once; returns the
/// trial with the median rate. One pass lasts milliseconds at CI scale,
/// too short to hold a floor against timer and scheduler noise.
Trial median_trial(const std::function<std::size_t()>& pass);

/// The collector's records sorted by query index. Completion order varies
/// with host thread count; a query's results must not, so result checksums
/// walk this order.
std::vector<const metrics::QueryRecord*> by_query_index(
    const metrics::Collector& c);

/// FNV-1a 64 over every query's results (index, count, then each id and
/// distance bits) in query-index order: the byte-identity fingerprint
/// bench_shard compares across ALGAS_BENCH_HOSTS, and the one each timed
/// trial of a run must reproduce.
std::uint64_t results_checksum(const metrics::Collector& c);

/// The JSON report of a gate bench, written to ALGAS_BENCH_OUT (default
/// BENCH_<name>.json). Fields are written in call order; object() and
/// array() open a container and close() ends the innermost one. Doubles
/// print in fixed notation (10 decimals unless given): the committed
/// baselines pin values printed that way. A container spans one line per
/// entry, except inside an array, where everything prints inline and keys
/// are ignored. Strings are written unescaped, so callers pass identifiers
/// only.
class JsonReport {
 public:
  explicit JsonReport(const std::string& name);

  JsonReport& text(std::string_view key, std::string_view v);
  JsonReport& number(std::string_view key, double v, int decimals = 10);
  JsonReport& integer(std::string_view key, std::uint64_t v);
  JsonReport& boolean(std::string_view key, bool v);
  JsonReport& object(std::string_view key = {});
  JsonReport& array(std::string_view key);
  JsonReport& close();

  /// Appends `"end": true`, writes the file and logs `wrote <path>`.
  void write(std::ostream& log);

 private:
  struct Frame {
    bool is_array;
    bool is_inline;
    bool empty = true;
  };
  JsonReport& begin(std::string_view key, bool is_array);
  void start_entry(std::string_view key);

  std::string path_;
  std::ostringstream out_;
  std::vector<Frame> frames_;
};

}  // namespace algas::bench
