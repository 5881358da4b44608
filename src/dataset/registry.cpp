#include "dataset/registry.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <sstream>
#include <stdexcept>

#include "common/env.hpp"
#include "dataset/ground_truth.hpp"
#include "dataset/io.hpp"
#include "dataset/synthetic.hpp"

namespace algas {

namespace {

struct Entry {
  const char* name;
  SyntheticSpec (*spec_fn)();
  std::size_t base_at_unit_scale;
  std::size_t queries_at_unit_scale;
};

const Entry kEntries[] = {
    {"sift", &sift_like_spec, 80000, 800},
    {"gist", &gist_like_spec, 20000, 400},
    {"glove", &glove_like_spec, 80000, 800},
    {"nytimes", &nytimes_like_spec, 30000, 500},
};

const Entry& find_entry(const std::string& name) {
  for (const auto& e : kEntries) {
    if (name == e.name) return e;
  }
  throw std::invalid_argument("unknown bench dataset: " + name);
}

std::string cache_path(const std::string& name, std::size_t num_base,
                       std::size_t num_queries, std::size_t gt_k) {
  const std::string dir = cache_dir();
  if (dir.empty()) return {};
  std::ostringstream out;
  out << dir << "/" << name << "_v4_n" << num_base << "_q" << num_queries
      << "_k" << gt_k << ".abin";
  return out.str();
}

}  // namespace

std::vector<std::string> bench_dataset_names() {
  std::vector<std::string> names;
  for (const auto& e : kEntries) names.emplace_back(e.name);
  return names;
}

Dataset load_bench_dataset_sized(const std::string& name,
                                 std::size_t num_base,
                                 std::size_t num_queries, std::size_t gt_k,
                                 bool use_cache) {
  const Entry& entry = find_entry(name);

  std::string path;
  if (use_cache) {
    path = cache_path(name, num_base, num_queries, gt_k);
    if (!path.empty() && file_exists(path)) {
      return load_dataset(path);
    }
  }

  SyntheticSpec spec = entry.spec_fn();
  spec.num_base = num_base;
  spec.num_queries = num_queries;
  Dataset ds = make_synthetic(spec);
  compute_ground_truth(ds, gt_k);

  if (use_cache && !path.empty()) {
    std::error_code ec;
    std::filesystem::create_directories(cache_dir(), ec);
    if (!ec) save_dataset(ds, path);
  }
  return ds;
}

Dataset load_bench_dataset(const std::string& name) {
  const Entry& entry = find_entry(name);
  const double scale = dataset_scale();
  const auto num_base = static_cast<std::size_t>(
      std::llround(scale * static_cast<double>(entry.base_at_unit_scale)));
  // ALGAS_QUERIES: 0 / unset keeps the scale-derived bench default.
  const std::size_t queries_knob = RuntimeOptions::from_env().queries;
  auto num_queries =
      queries_knob != 0
          ? queries_knob
          : static_cast<std::size_t>(std::llround(
                scale * static_cast<double>(entry.queries_at_unit_scale)));
  num_queries = std::max<std::size_t>(num_queries, 16);
  return load_bench_dataset_sized(name, std::max<std::size_t>(num_base, 1000),
                                  num_queries, kBenchGtK, true);
}

}  // namespace algas
