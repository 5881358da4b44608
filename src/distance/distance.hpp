// Distance kernels. All metrics map to "smaller is closer" so search code
// never branches on metric direction.
//
// l2_sq and dot sum the way one warp scores a neighbour (Algorithm 1, lines
// 10-13): each of 32 lanes adds a strided slice of the dimensions, lane l
// taking l, l + 32, l + 64, ..., and the partials reduce pairwise at offsets
// 16, 8, 4, 2, 1 like a shuffle reduction. norm, cosine_similarity and
// distance are built on them. This is the one scoring order: every batch
// kernel (distance/kernels.hpp) matches it bit for bit.
#pragma once

#include <cstddef>
#include <span>
#include <string>

#include "common/types.hpp"

namespace algas {

enum class Metric : std::uint8_t {
  kL2 = 0,          ///< squared Euclidean distance
  kInnerProduct,    ///< 1 - <a,b> (vectors need not be normalized)
  kCosine,          ///< 1 - cos(a,b)
};

std::string metric_name(Metric m);

float l2_sq(std::span<const float> a, std::span<const float> b);
float dot(std::span<const float> a, std::span<const float> b);
float cosine_similarity(std::span<const float> a, std::span<const float> b);

/// Metric dispatch; smaller result = closer pair.
float distance(Metric m, std::span<const float> a, std::span<const float> b);

/// L2 norm of `a`.
float norm(std::span<const float> a);

/// Normalize in place; zero vectors are left untouched.
void normalize(std::span<float> a);

}  // namespace algas
