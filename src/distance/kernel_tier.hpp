// Internal to the distance layer: the warp lane order every kernel sums in,
// and the kernel tiers behind distance_batch and distance_batch_range.
// Callers use distance/kernels.hpp; tests include this header to run every
// tier the host supports against distance().
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <span>

#include "distance/kernels.hpp"

namespace algas::detail {

/// Lanes of one warp (DeviceProps::warp_size): the lane count
/// CostModel::distance_round_ns charges a distance round for.
inline constexpr std::size_t kWarpLanes = 32;

/// The warp's sum of term(0), ..., term(n - 1) (Algorithm 1, lines 10-13):
/// lane l adds terms l, l + 32, l + 64, ... in that order, starting from +0,
/// and the 32 partials then reduce pairwise at offsets 16, 8, 4, 2, 1, as a
/// warp shuffle reduction does. l2_sq, dot and every kernel tier sum this
/// way, so each scores the same bits.
template <typename Term>
inline float lane_sum(std::size_t n, Term term) {
  float acc[kWarpLanes] = {};
  std::size_t i = 0;
  for (; i + kWarpLanes <= n; i += kWarpLanes) {
    for (std::size_t l = 0; l < kWarpLanes; ++l) acc[l] += term(i + l);
  }
  for (std::size_t l = 0; i + l < n; ++l) acc[l] += term(i + l);
  for (std::size_t offset = kWarpLanes / 2; offset > 0; offset /= 2) {
    for (std::size_t l = 0; l < offset; ++l) acc[l] += acc[l + offset];
  }
  return acc[0];
}

enum class KernelTier : std::uint8_t {
  kPortable = 0,  ///< lane_sum over the codec's row accessor; every host
  kAvx2,          ///< four 8-float registers hold the 32 lanes (AVX2, F16C)
};

/// "portable" or "avx2".
const char* kernel_tier_name(KernelTier tier);

/// The tier this process runs: kAvx2 on an x86-64 host whose CPU and OS
/// support AVX2 and F16C, else kPortable. Decided once, on first use.
KernelTier host_kernel_tier();

/// distance_batch and distance_batch_range on an explicit tier. `tier` must
/// be kPortable or host_kernel_tier(); the public entry points pass the
/// latter. Every tier writes the same bits.
void distance_batch_on(KernelTier tier, Metric m, std::span<const float> query,
                       const EncodedRows& rows, std::span<const NodeId> ids,
                       std::span<float> out, std::span<const float> norms,
                       std::optional<float> query_norm);
void distance_batch_range_on(KernelTier tier, Metric m,
                             std::span<const float> query,
                             const EncodedRows& rows, std::size_t first,
                             std::size_t count, std::span<float> out,
                             std::span<const float> norms);

}  // namespace algas::detail
