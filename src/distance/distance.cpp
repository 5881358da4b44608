#include "distance/distance.hpp"

#include <cassert>
#include <cmath>

#include "distance/kernel_tier.hpp"

namespace algas {

std::string metric_name(Metric m) {
  switch (m) {
    case Metric::kL2: return "L2";
    case Metric::kInnerProduct: return "InnerProduct";
    case Metric::kCosine: return "Cosine";
  }
  return "unknown";
}

float l2_sq(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  return detail::lane_sum(a.size(), [&](std::size_t i) {
    const float d = a[i] - b[i];
    return d * d;
  });
}

float dot(std::span<const float> a, std::span<const float> b) {
  assert(a.size() == b.size());
  return detail::lane_sum(a.size(),
                          [&](std::size_t i) { return a[i] * b[i]; });
}

float norm(std::span<const float> a) { return std::sqrt(dot(a, a)); }

void normalize(std::span<float> a) {
  const float n = norm(a);
  if (n <= 0.0f) return;
  const float inv = 1.0f / n;
  for (auto& v : a) v *= inv;
}

float cosine_similarity(std::span<const float> a, std::span<const float> b) {
  const float na = norm(a);
  const float nb = norm(b);
  if (na <= 0.0f || nb <= 0.0f) return 0.0f;
  return dot(a, b) / (na * nb);
}

float distance(Metric m, std::span<const float> a, std::span<const float> b) {
  switch (m) {
    case Metric::kL2: return l2_sq(a, b);
    case Metric::kInnerProduct: return 1.0f - dot(a, b);
    case Metric::kCosine: return 1.0f - cosine_similarity(a, b);
  }
  return kInfDist;
}

}  // namespace algas
