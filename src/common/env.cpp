#include "common/env.hpp"

#include <algorithm>
#include <cstdlib>

namespace algas {

double env_double(const char* name, double fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const double v = std::strtod(raw, &end);
  if (end == raw) return fallback;
  return v;
}

std::size_t env_size(const char* name, std::size_t fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr || *raw == '\0') return fallback;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(raw, &end, 10);
  if (end == raw) return fallback;
  return static_cast<std::size_t>(v);
}

std::string env_string(const char* name, const std::string& fallback) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return fallback;
  return std::string(raw);
}

RuntimeOptions RuntimeOptions::from_env() {
  RuntimeOptions opts;
  opts.scale = std::clamp(env_double("ALGAS_SCALE", 1.0), 0.01, 100.0);
  opts.queries = env_size("ALGAS_QUERIES", 0);
  opts.datasets = env_string("ALGAS_DATASETS", "sift,gist,glove,nytimes");
  opts.cache_dir = env_string("ALGAS_CACHE_DIR", "./algas_cache");
  opts.storage = env_string("ALGAS_STORAGE", "f32");
  opts.trace_path = env_string("ALGAS_TRACE", "");
  const std::string check = env_string("ALGAS_SIMCHECK", "");
  if (check == "1" || check == "on" || check == "ON") {
    opts.simcheck = 1;
  } else if (check == "0" || check == "off" || check == "OFF") {
    opts.simcheck = 0;
  }
  opts.build_threads = env_size("ALGAS_BUILD_THREADS", 0);
  opts.bench_out = env_string("ALGAS_BENCH_OUT", "");
  opts.bench_hosts = std::max<std::size_t>(1, env_size("ALGAS_BENCH_HOSTS", 1));
  return opts;
}

double dataset_scale() { return RuntimeOptions::from_env().scale; }

std::string cache_dir() { return RuntimeOptions::from_env().cache_dir; }

std::size_t build_threads() {
  return RuntimeOptions::from_env().build_threads;
}

}  // namespace algas
