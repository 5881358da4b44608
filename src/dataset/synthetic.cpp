#include "dataset/synthetic.hpp"

#include <algorithm>
#include <cmath>
#include <vector>

#include "common/rng.hpp"

namespace algas {

namespace {

struct Mixture {
  std::vector<float> centers;  // clusters x dim
  std::vector<float> radius;   // per cluster
  std::size_t dim;

  std::span<const float> center(std::size_t c) const {
    return {centers.data() + c * dim, dim};
  }
};

Mixture make_mixture(const SyntheticSpec& spec, Rng& rng) {
  Mixture m;
  m.dim = spec.dim;
  m.centers.resize(spec.clusters * spec.dim);
  m.radius.resize(spec.clusters);
  for (auto& v : m.centers) v = rng.next_float();
  for (auto& r : m.radius) {
    // Jitter radius in [0.5, 1.5] x spread: dense and sparse regions.
    r = static_cast<float>(spec.spread * (0.5 + rng.next_double()));
  }
  return m;
}

void draw_point(const Mixture& m, Rng& rng, std::size_t cluster,
                double extra_noise, float* out) {
  const auto c = m.center(cluster);
  const float r = m.radius[cluster];
  for (std::size_t d = 0; d < m.dim; ++d) {
    out[d] = c[d] + r * rng.next_gaussian() +
             static_cast<float>(extra_noise) * rng.next_gaussian();
  }
}

void draw_uniform(std::size_t dim, Rng& rng, float* out) {
  for (std::size_t d = 0; d < dim; ++d) out[d] = rng.next_float();
}

}  // namespace

Dataset make_synthetic(const SyntheticSpec& spec) {
  Rng rng(spec.seed);
  Mixture mix = make_mixture(spec, rng);

  Dataset ds(spec.name, spec.dim, spec.metric);
  std::vector<float> base(spec.num_base * spec.dim);
  for (std::size_t i = 0; i < spec.num_base; ++i) {
    if (rng.next_double() < spec.background_fraction) {
      draw_uniform(spec.dim, rng, base.data() + i * spec.dim);
      continue;
    }
    // Zipf-ish cluster popularity: u^1.5 skews mass toward low cluster
    // ids, creating denser hubs like real corpora have (a full square
    // makes hub regions so dense that per-query scan costs explode).
    const double u = rng.next_double();
    const auto cluster = static_cast<std::size_t>(
        u * std::sqrt(u) * static_cast<double>(spec.clusters));
    draw_point(mix, rng, std::min(cluster, spec.clusters - 1), 0.0,
               base.data() + i * spec.dim);
  }

  std::vector<float> queries(spec.num_queries * spec.dim);
  for (std::size_t i = 0; i < spec.num_queries; ++i) {
    float* out = queries.data() + i * spec.dim;
    if (rng.next_double() < spec.outlier_query_fraction) {
      draw_uniform(spec.dim, rng, out);
    } else {
      const auto cluster = rng.next_below(spec.clusters);
      draw_point(mix, rng, cluster, spec.query_noise, out);
    }
  }

  if (spec.metric == Metric::kCosine || spec.metric == Metric::kInnerProduct) {
    for (std::size_t i = 0; i < spec.num_base; ++i) {
      normalize({base.data() + i * spec.dim, spec.dim});
    }
    for (std::size_t i = 0; i < spec.num_queries; ++i) {
      normalize({queries.data() + i * spec.dim, spec.dim});
    }
  }
  ds.set_base(std::move(base));
  ds.set_queries(std::move(queries));
  // Attributes last, from their own stateless hash stream: the sequential
  // rng above must see exactly the draws it always has, or every pinned
  // vector (and with them all recall baselines) would change.
  attach_synthetic_attributes(ds);
  return ds;
}

void attach_synthetic_attributes(Dataset& ds, const AttributeSpec& spec) {
  const std::size_t n = ds.num_base();
  std::vector<std::uint32_t> cats(n), ts(n);
  for (std::size_t i = 0; i < n; ++i) {
    // Two independent lanes off one (seed, id) hash chain; the salts keep
    // category and timestamp decorrelated.
    const std::uint64_t h = splitmix64(spec.seed ^ (0x9e3779b97f4a7c15ULL +
                                                    static_cast<std::uint64_t>(i)));
    cats[i] = static_cast<std::uint32_t>(
        splitmix64(h ^ 0xC47E60121ULL) %
        static_cast<std::uint64_t>(std::max<std::size_t>(spec.categories, 1)));
    ts[i] = static_cast<std::uint32_t>(
        splitmix64(h ^ 0x7157A3BULL) %
        static_cast<std::uint64_t>(std::max<std::uint32_t>(spec.timestamp_range, 1)));
  }
  ds.set_attributes(std::move(cats), std::move(ts));
}

SyntheticSpec sift_like_spec() {
  SyntheticSpec s;
  s.name = "SIFT-like";
  s.dim = 128;
  s.metric = Metric::kL2;
  s.clusters = 200;
  s.spread = 0.10;
  s.seed = 0x51F7;
  return s;
}

SyntheticSpec gist_like_spec() {
  SyntheticSpec s;
  s.name = "GIST-like";
  s.dim = 960;
  s.metric = Metric::kL2;
  s.clusters = 120;
  s.spread = 0.08;
  s.seed = 0x6157;
  return s;
}

SyntheticSpec glove_like_spec() {
  SyntheticSpec s;
  s.name = "GloVe-like";
  s.dim = 200;
  s.metric = Metric::kCosine;
  s.clusters = 160;
  s.spread = 0.12;
  s.seed = 0x6107E;
  return s;
}

SyntheticSpec nytimes_like_spec() {
  SyntheticSpec s;
  s.name = "NYTimes-like";
  s.dim = 256;
  s.metric = Metric::kCosine;
  s.clusters = 100;
  s.spread = 0.11;
  s.seed = 0x217;
  return s;
}

}  // namespace algas
