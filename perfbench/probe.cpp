// Host-speed probe: a fixed reference loop, compiled with flags pinned in
// CMakeLists.txt, whose run time depends on the host alone. It mixes an
// integer hash chain with dependent float arithmetic over an L1-resident
// table, so it slows down when the core is shared or throttled, and never
// changes with the code under test.
#include <array>
#include <chrono>
#include <cstdint>

#include "harness.hpp"

namespace perfbench {

namespace {

// Defeats constant folding: the loop's inputs and result pass through it.
volatile std::uint64_t g_sink = 0;

}  // namespace

double host_probe_ms() {
  std::array<float, 1024> table{};
  std::uint64_t x = g_sink + 0x9e3779b97f4a7c15ULL;
  for (std::size_t i = 0; i < table.size(); ++i) {
    x ^= x >> 31;
    x *= 0xbf58476d1ce4e5b9ULL;
    table[i] = static_cast<float>(x >> 40) * 1e-7f;
  }
  const auto t0 = std::chrono::steady_clock::now();
  float acc = 0.0f;
  for (std::uint32_t round = 0; round < 40'000'000u; ++round) {
    x ^= x >> 29;
    x *= 0x94d049bb133111ebULL;
    acc = acc * 0.999f + table[x & (table.size() - 1)];
  }
  const auto t1 = std::chrono::steady_clock::now();
  g_sink = x ^ static_cast<std::uint64_t>(acc);
  return std::chrono::duration<double, std::milli>(t1 - t0).count();
}

}  // namespace perfbench
