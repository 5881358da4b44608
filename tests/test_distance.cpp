#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <tuple>
#include <vector>

#include "common/rng.hpp"
#include "distance/distance.hpp"
#include "distance/kernel_tier.hpp"
#include "simgpu/device_props.hpp"

namespace algas {
namespace {

TEST(Distance, L2Known) {
  const std::vector<float> a{1.0f, 2.0f, 3.0f};
  const std::vector<float> b{4.0f, 6.0f, 3.0f};
  EXPECT_FLOAT_EQ(l2_sq(a, b), 9.0f + 16.0f);
  EXPECT_FLOAT_EQ(l2_sq(a, a), 0.0f);
}

TEST(Distance, DotKnown) {
  const std::vector<float> a{1.0f, 2.0f, 3.0f};
  const std::vector<float> b{-1.0f, 0.5f, 2.0f};
  EXPECT_FLOAT_EQ(dot(a, b), -1.0f + 1.0f + 6.0f);
}

TEST(Distance, CosineBounds) {
  const std::vector<float> a{1.0f, 0.0f};
  const std::vector<float> b{0.0f, 1.0f};
  const std::vector<float> c{-1.0f, 0.0f};
  EXPECT_NEAR(cosine_similarity(a, a), 1.0f, 1e-6);
  EXPECT_NEAR(cosine_similarity(a, b), 0.0f, 1e-6);
  EXPECT_NEAR(cosine_similarity(a, c), -1.0f, 1e-6);
}

TEST(Distance, SmallerIsCloserForAllMetrics) {
  // near is more similar to q than far, under every metric mapping.
  const std::vector<float> q{1.0f, 1.0f, 0.0f, 0.0f};
  const std::vector<float> near_v{1.0f, 0.9f, 0.1f, 0.0f};
  const std::vector<float> far_v{-1.0f, -0.8f, 0.5f, 0.3f};
  for (Metric m : {Metric::kL2, Metric::kInnerProduct, Metric::kCosine}) {
    EXPECT_LT(distance(m, q, near_v), distance(m, q, far_v))
        << metric_name(m);
  }
}

TEST(Distance, NormalizeMakesUnit) {
  std::vector<float> v{3.0f, 4.0f};
  normalize(v);
  EXPECT_NEAR(norm(v), 1.0f, 1e-6);
  EXPECT_NEAR(v[0], 0.6f, 1e-6);
  std::vector<float> zero{0.0f, 0.0f};
  normalize(zero);  // must not produce NaN
  EXPECT_EQ(zero[0], 0.0f);
}

TEST(Distance, MetricNames) {
  EXPECT_EQ(metric_name(Metric::kL2), "L2");
  EXPECT_EQ(metric_name(Metric::kInnerProduct), "InnerProduct");
  EXPECT_EQ(metric_name(Metric::kCosine), "Cosine");
}

// The warp's sum written out by hand: lane l adds terms l, l + 32, ...
// from +0, and the 32 partials reduce pairwise at offsets 16, 8, 4, 2, 1.
float warp_sum(const std::vector<float>& terms) {
  float lane[32] = {};
  for (std::size_t l = 0; l < 32; ++l) {
    for (std::size_t i = l; i < terms.size(); i += 32) lane[l] += terms[i];
  }
  for (std::size_t offset = 16; offset >= 1; offset /= 2) {
    for (std::size_t l = 0; l < offset; ++l) lane[l] += lane[l + offset];
  }
  return lane[0];
}

/// distance() as a warp computes it, from warp_sum alone.
float warp_distance(Metric m, const std::vector<float>& a,
                    const std::vector<float>& b) {
  std::vector<float> ab(a.size()), aa(a.size()), bb(a.size()), l2(a.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    const float d = a[i] - b[i];
    l2[i] = d * d;
    ab[i] = a[i] * b[i];
    aa[i] = a[i] * a[i];
    bb[i] = b[i] * b[i];
  }
  switch (m) {
    case Metric::kL2:
      return warp_sum(l2);
    case Metric::kInnerProduct:
      return 1.0f - warp_sum(ab);
    case Metric::kCosine: {
      const float na = std::sqrt(warp_sum(aa));
      const float nb = std::sqrt(warp_sum(bb));
      if (na <= 0.0f || nb <= 0.0f) return 1.0f;
      return 1.0f - warp_sum(ab) / (na * nb);
    }
  }
  return kInfDist;
}

std::uint32_t bits(float x) { return std::bit_cast<std::uint32_t>(x); }

// Property sweep: distance() must equal the hand-written 32-lane warp sum
// bit for bit, for every metric, for dims smaller than, equal to and
// around multiples of the 32 lanes, each over several seeded inputs.
class LaneEquivalence
    : public ::testing::TestWithParam<
          std::tuple<Metric, std::size_t, std::size_t>> {};

TEST_P(LaneEquivalence, MatchesScalarKernel) {
  const auto [metric, dim, seed] = GetParam();
  Rng rng(dim * 131 + seed);
  std::vector<float> a(dim), b(dim);
  for (std::size_t i = 0; i < dim; ++i) {
    a[i] = rng.next_gaussian();
    b[i] = rng.next_gaussian();
  }
  EXPECT_EQ(bits(distance(metric, a, b)), bits(warp_distance(metric, a, b)))
      << metric_name(metric) << " dim=" << dim << " seed=" << seed;
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, LaneEquivalence,
    ::testing::Combine(
        ::testing::Values(Metric::kL2, Metric::kInnerProduct, Metric::kCosine),
        ::testing::Values<std::size_t>(1, 7, 31, 32, 33, 100, 128, 200, 960),
        ::testing::Values<std::size_t>(1, 2, 8, 32)));

TEST(Distance, LanesHandleDimSmallerThanLanes) {
  const std::vector<float> a{1.0f, 2.0f};
  const std::vector<float> b{3.0f, 5.0f};
  EXPECT_EQ(l2_sq(a, b), 13.0f);
  EXPECT_EQ(bits(l2_sq(a, b)), bits(warp_distance(Metric::kL2, a, b)));
}

TEST(Distance, WarpLanesAreTheDeviceWarp) {
  EXPECT_EQ(detail::kWarpLanes, sim::DeviceProps{}.warp_size);
  EXPECT_EQ(detail::kWarpLanes, sim::DeviceProps::rtx_a6000().warp_size);
}

}  // namespace
}  // namespace algas
