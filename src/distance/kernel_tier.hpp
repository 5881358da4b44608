// Internal to the distance layer: the kernel tiers behind distance_batch and
// distance_batch_range. Callers use distance/kernels.hpp; tests include this
// header to run every tier the host supports against distance().
#pragma once

#include <cstdint>
#include <optional>
#include <span>

#include "distance/kernels.hpp"

namespace algas::detail {

enum class KernelTier : std::uint8_t {
  kPortable = 0,  ///< 4-row accumulator chains; every codec, every host
  kAvx2x8,        ///< f32 batches of >= 2 rows: 8 rows per AVX2 register
};

/// "portable" or "avx2x8".
const char* kernel_tier_name(KernelTier tier);

/// The tier this process runs: kAvx2x8 on an x86-64 host whose CPU and OS
/// support AVX2, else kPortable. Decided once, on first use.
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
