// Runtime configuration shared by the library, benches, examples and tools.
//
// Every process-wide knob is an ALGAS_* environment variable, collected in
// one place by RuntimeOptions::from_env(). The precedence rule, everywhere,
// is:
//
//   CLI flag  >  environment variable  >  compiled default
//
// i.e. a front-end (algas_cli, a bench) that exposes a flag must default
// that flag to the RuntimeOptions value, never read the environment behind
// it a second time.
//
//   ALGAS_SCALE         — multiplies every default dataset size (default
//                         1.0, clamped to [0.01, 100]).
//   ALGAS_QUERIES       — overrides the default query count per bench
//                         config (0 / unset keeps the bench default).
//   ALGAS_DATASETS      — comma list of bench dataset names.
//   ALGAS_CACHE_DIR     — directory for serialized datasets / graphs /
//                         ground truth (default "./algas_cache"). Empty
//                         disables caching.
//   ALGAS_STORAGE       — base-row storage codec: f32 | f16 | int8
//                         (default f32; validated at the use site).
//   ALGAS_TRACE         — SimTrace output path ("" = tracing off).
//   ALGAS_SIMCHECK      — 1/on or 0/off; unset follows the compiled
//                         ALGAS_SIMCHECK CMake default.
//   ALGAS_BUILD_THREADS — worker threads of the pool that runs construction
//                         work (graph builds, ground truth, k-means) and
//                         the engines' searches ahead of dispatch
//                         (core/search_ahead.hpp). 0 / unset picks
//                         std::thread::hardware_concurrency(); 1 runs both
//                         on the calling thread.
//   ALGAS_BENCH_OUT     — JSON report path of a gate bench (bench_walltime,
//                         recall_gate, bench_churn, bench_shard,
//                         bench_serving, bench_filtered). "" / unset writes
//                         BENCH_<name>.json, e.g. BENCH_shard.json.
//   ALGAS_BENCH_HOSTS   — host worker threads in bench_shard (per shard
//                         engine), bench_serving and bench_filtered
//                         (default 1, min 1). Their gates run 1 vs 4 and
//                         compare result checksums: results must not
//                         depend on host thread count.
#pragma once

#include <cstddef>
#include <string>

namespace algas {

/// Fetch a double-valued env var, or `fallback` when unset/invalid.
double env_double(const char* name, double fallback);

/// Fetch a size-valued env var, or `fallback` when unset/invalid.
std::size_t env_size(const char* name, std::size_t fallback);

/// Fetch a string env var, or `fallback` when unset.
std::string env_string(const char* name, const std::string& fallback);

/// Every ALGAS_* runtime knob, read once per from_env() call (no hidden
/// caching: tests mutate the environment and re-read).
struct RuntimeOptions {
  double scale = 1.0;                ///< ALGAS_SCALE, clamped [0.01, 100]
  std::size_t queries = 0;           ///< ALGAS_QUERIES, 0 = bench default
  std::string datasets;              ///< ALGAS_DATASETS comma list
  std::string cache_dir;             ///< ALGAS_CACHE_DIR, "" disables
  std::string storage;               ///< ALGAS_STORAGE codec name
  std::string trace_path;            ///< ALGAS_TRACE, "" = off
  int simcheck = -1;                 ///< ALGAS_SIMCHECK: 1 on, 0 off,
                                     ///<   -1 = follow the compiled default
  std::size_t build_threads = 0;     ///< ALGAS_BUILD_THREADS, 0 = hardware
  std::string bench_out;             ///< ALGAS_BENCH_OUT, "" = default name
  std::size_t bench_hosts = 1;       ///< ALGAS_BENCH_HOSTS, min 1

  static RuntimeOptions from_env();
};

/// Global dataset scale factor (RuntimeOptions::scale).
double dataset_scale();

/// Cache directory (RuntimeOptions::cache_dir). Empty disables caching.
std::string cache_dir();

/// Worker count for construction and the engines' searches
/// (RuntimeOptions::build_threads, 0 = hardware concurrency).
std::size_t build_threads();

}  // namespace algas
