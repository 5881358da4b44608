// Core scalar aliases and small helpers shared by every ALGAS module.
#pragma once

#include <cstddef>
#include <cstdint>
#include <limits>
#include <stdexcept>

namespace algas {

/// Vector/node identifier within a dataset or graph. 32 bits covers the
/// billion-scale range the paper's datasets occupy after scaling.
using NodeId = std::uint32_t;

/// Sentinel for "no node".
inline constexpr NodeId kInvalidNode = std::numeric_limits<NodeId>::max();

/// Virtual time in the simulated-GPU substrate, in nanoseconds.
using SimTime = double;

/// Distance value. All metrics are mapped so that *smaller is closer*.
using Dist = float;

inline constexpr Dist kInfDist = std::numeric_limits<Dist>::infinity();

/// Round `v` up to the next power of two (v >= 1). Above 2^63 there is
/// none in size_t: std::overflow_error.
constexpr std::size_t next_pow2(std::size_t v) {
  if (v > (std::size_t{1} << 63)) {
    throw std::overflow_error(
        "next_pow2: no power of two in size_t is that large");
  }
  std::size_t p = 1;
  while (p < v) p <<= 1;
  return p;
}

/// Integer ceil division.
constexpr std::size_t ceil_div(std::size_t a, std::size_t b) {
  return (a + b - 1) / b;
}

}  // namespace algas
