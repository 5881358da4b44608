#include "distance/kernels.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <optional>
#include <stdexcept>

#if defined(__x86_64__)
#include <immintrin.h>
#endif

#include "common/half.hpp"
#include "distance/kernel_tier.hpp"

namespace algas {

using detail::KernelTier;

namespace {

#if defined(__GNUC__) || defined(__clang__)
inline void prefetch_row(const void* row) { __builtin_prefetch(row, 0, 1); }
#else
inline void prefetch_row(const void*) {}
#endif

/// How many rows ahead of the current group to issue prefetches for. Rows
/// are dim elements (hundreds of bytes), so a small lookahead covers the
/// memory latency without thrashing L1.
constexpr std::size_t kPrefetchAhead = 8;

// Row accessors: one per codec. operator[] yields the float the scalar
// kernel would see — a plain load for f32, an in-register dequantization
// for f16/int8. The accumulator chains below are codec-agnostic; only the
// element producer changes, so each codec's batch result is bitwise-equal
// to decoding its row and running the f32 chain.

struct F32Row {
  const float* p;
  float operator[](std::size_t i) const { return p[i]; }
  const void* addr() const { return p; }
};

struct F16Row {
  const std::uint16_t* p;
  float operator[](std::size_t i) const { return half_to_float(p[i]); }
  const void* addr() const { return p; }
};

struct I8Row {
  const std::int8_t* p;
  float scale;  ///< per-row symmetric dequantization scale
  float operator[](std::size_t i) const {
    return scale * static_cast<float>(p[i]);
  }
  const void* addr() const { return p; }
};

// Each *_quad kernel scores four rows with four independent accumulator
// chains. Every chain walks dimensions 0..dim-1 in the scalar kernel's
// order, so each output is bitwise-equal to the one-row kernel; the chains
// only interleave *between* points, which the scalar kernels never observe.

template <typename Row>
void l2_quad(std::span<const float> q, Row r0, Row r1, Row r2, Row r3,
             float* out) {
  float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
  for (std::size_t i = 0; i < q.size(); ++i) {
    const float qi = q[i];
    const float d0 = qi - r0[i];
    const float d1 = qi - r1[i];
    const float d2 = qi - r2[i];
    const float d3 = qi - r3[i];
    a0 += d0 * d0;
    a1 += d1 * d1;
    a2 += d2 * d2;
    a3 += d3 * d3;
  }
  out[0] = a0;
  out[1] = a1;
  out[2] = a2;
  out[3] = a3;
}

template <typename Row>
void dot_quad(std::span<const float> q, Row r0, Row r1, Row r2, Row r3,
              float* out) {
  float a0 = 0.0f, a1 = 0.0f, a2 = 0.0f, a3 = 0.0f;
  for (std::size_t i = 0; i < q.size(); ++i) {
    const float qi = q[i];
    a0 += qi * r0[i];
    a1 += qi * r1[i];
    a2 += qi * r2[i];
    a3 += qi * r3[i];
  }
  out[0] = a0;
  out[1] = a1;
  out[2] = a2;
  out[3] = a3;
}

// One-row kernels for the scalar tail: identical operations to l2_sq/dot
// (distance.cpp) with the row element routed through the codec accessor, so
// a tail result matches both the quad chains and the scalar f32 kernel on
// the decoded row.

template <typename Row>
float l2_one(std::span<const float> q, Row r) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < q.size(); ++i) {
    const float d = q[i] - r[i];
    acc += d * d;
  }
  return acc;
}

template <typename Row>
float dot_one(std::span<const float> q, Row r) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < q.size(); ++i) acc += q[i] * r[i];
  return acc;
}

/// norm() of the decoded row — same accumulation as norm(span) = sqrt(dot).
template <typename Row>
float norm_one(Row r, std::size_t dim) {
  float acc = 0.0f;
  for (std::size_t i = 0; i < dim; ++i) acc += r[i] * r[i];
  return std::sqrt(acc);
}

/// The scalar cosine kernel recomputes norm(a) and norm(b) inside every
/// call (cosine_similarity); batching hoists norm(a) — same function, same
/// bits — and reads norm(b) from the caller's table.
float cosine_from_parts(float na, float nb, float d) {
  if (na <= 0.0f || nb <= 0.0f) return 1.0f - 0.0f;
  return 1.0f - d / (na * nb);
}

/// norm(q) for the cosine metric — the caller's precomputed value when it
/// has one, which is the same function over the same span — else unused.
float cosine_query_norm(Metric m, std::span<const float> q,
                        std::optional<float> given) {
  if (m != Metric::kCosine) return 0.0f;
  return given ? *given : norm(q);
}

/// Portable driver: fetches row accessors through `row_of(k)` and row norms
/// through `norm_of(k)` (cosine only), walking the batch in groups of four.
template <typename RowOf, typename NormOf>
void batch_quad(Metric m, std::span<const float> q, float query_norm,
                std::size_t count, RowOf row_of, NormOf norm_of,
                std::span<float> out) {
  assert(out.size() >= count);
  std::size_t k = 0;
  float dots[4];
  for (; k + 4 <= count; k += 4) {
    for (std::size_t p = k + 4; p < k + 4 + kPrefetchAhead && p < count; ++p) {
      prefetch_row(row_of(p).addr());
    }
    const auto r0 = row_of(k);
    const auto r1 = row_of(k + 1);
    const auto r2 = row_of(k + 2);
    const auto r3 = row_of(k + 3);
    switch (m) {
      case Metric::kL2:
        l2_quad(q, r0, r1, r2, r3, &out[k]);
        break;
      case Metric::kInnerProduct:
        dot_quad(q, r0, r1, r2, r3, dots);
        out[k] = 1.0f - dots[0];
        out[k + 1] = 1.0f - dots[1];
        out[k + 2] = 1.0f - dots[2];
        out[k + 3] = 1.0f - dots[3];
        break;
      case Metric::kCosine:
        dot_quad(q, r0, r1, r2, r3, dots);
        for (std::size_t j = 0; j < 4; ++j) {
          out[k + j] = cosine_from_parts(query_norm, norm_of(k + j), dots[j]);
        }
        break;
    }
  }
  for (; k < count; ++k) {
    const auto r = row_of(k);
    switch (m) {
      case Metric::kL2:
        out[k] = l2_one(q, r);
        break;
      case Metric::kInnerProduct:
        out[k] = 1.0f - dot_one(q, r);
        break;
      case Metric::kCosine:
        out[k] = cosine_from_parts(query_norm, norm_of(k), dot_one(q, r));
        break;
    }
  }
}

#if defined(__x86_64__)

// Row-parallel f32 kernel: eight rows per AVX2 register, one row per lane.
// Each block of 8 dimensions loads each row's next 8 floats and forms the
// products row-major, (q - r)^2 or q * r, exactly as l2_sq/dot round them.
// An in-register 8x8 transpose then turns "row j, dims b..b+7" into "dim
// b+i, rows 0..7", and the 8 product vectors are added into one
// accumulator in dimension order. So lane j performs l2_sq's or dot's
// operations on row j in their order, and every output is bitwise-equal on
// every host: the transpose only moves data, and kernels.cpp is compiled
// with -ffp-contract=off (src/CMakeLists.txt) so nothing fuses into an FMA.
#define ALGAS_AVX2 __attribute__((target("avx2")))

/// 8 floats from p: all of them, or (kTail) the lanes `mask` selects, the
/// rest read as 0 without touching memory.
template <bool kTail>
ALGAS_AVX2 inline __m256 load8(const float* p, __m256i mask) {
  if constexpr (kTail) {
    return _mm256_maskload_ps(p, mask);
  } else {
    return _mm256_loadu_ps(p);
  }
}

/// The per-dimension term l2_sq (kL2) or dot adds.
template <bool kL2>
ALGAS_AVX2 inline __m256 product(__m256 q, __m256 r) {
  if constexpr (kL2) {
    const __m256 d = _mm256_sub_ps(q, r);
    return _mm256_mul_ps(d, d);
  } else {
    return _mm256_mul_ps(q, r);
  }
}

/// In-register 8x8 transpose: afterwards lane j of p_i is what lane i of
/// p_j was.
ALGAS_AVX2 inline void transpose8(__m256& p0, __m256& p1, __m256& p2,
                                  __m256& p3, __m256& p4, __m256& p5,
                                  __m256& p6, __m256& p7) {
  const __m256 t0 = _mm256_unpacklo_ps(p0, p1);
  const __m256 t1 = _mm256_unpackhi_ps(p0, p1);
  const __m256 t2 = _mm256_unpacklo_ps(p2, p3);
  const __m256 t3 = _mm256_unpackhi_ps(p2, p3);
  const __m256 t4 = _mm256_unpacklo_ps(p4, p5);
  const __m256 t5 = _mm256_unpackhi_ps(p4, p5);
  const __m256 t6 = _mm256_unpacklo_ps(p6, p7);
  const __m256 t7 = _mm256_unpackhi_ps(p6, p7);
  const __m256 s0 = _mm256_shuffle_ps(t0, t2, 0x44);
  const __m256 s1 = _mm256_shuffle_ps(t0, t2, 0xEE);
  const __m256 s2 = _mm256_shuffle_ps(t1, t3, 0x44);
  const __m256 s3 = _mm256_shuffle_ps(t1, t3, 0xEE);
  const __m256 s4 = _mm256_shuffle_ps(t4, t6, 0x44);
  const __m256 s5 = _mm256_shuffle_ps(t4, t6, 0xEE);
  const __m256 s6 = _mm256_shuffle_ps(t5, t7, 0x44);
  const __m256 s7 = _mm256_shuffle_ps(t5, t7, 0xEE);
  p0 = _mm256_permute2f128_ps(s0, s4, 0x20);
  p1 = _mm256_permute2f128_ps(s1, s5, 0x20);
  p2 = _mm256_permute2f128_ps(s2, s6, 0x20);
  p3 = _mm256_permute2f128_ps(s3, s7, 0x20);
  p4 = _mm256_permute2f128_ps(s0, s4, 0x31);
  p5 = _mm256_permute2f128_ps(s1, s5, 0x31);
  p6 = _mm256_permute2f128_ps(s2, s6, 0x31);
  p7 = _mm256_permute2f128_ps(s3, s7, 0x31);
}

/// Adds dims b, b + 1, ..., b + n - 1 of rows r[0..8) to the accumulator
/// lanes, in that order. A full block has n = 8; a tail block (kTail) has
/// n < 8 and `mask` selecting its first n lanes.
template <bool kL2, bool kTail>
ALGAS_AVX2 inline __m256 add_block(__m256 acc, const float* q,
                                   const float* const* r, std::size_t b,
                                   std::size_t n, __m256i mask) {
  const __m256 qv = load8<kTail>(q + b, mask);
  __m256 p0 = product<kL2>(qv, load8<kTail>(r[0] + b, mask));
  __m256 p1 = product<kL2>(qv, load8<kTail>(r[1] + b, mask));
  __m256 p2 = product<kL2>(qv, load8<kTail>(r[2] + b, mask));
  __m256 p3 = product<kL2>(qv, load8<kTail>(r[3] + b, mask));
  __m256 p4 = product<kL2>(qv, load8<kTail>(r[4] + b, mask));
  __m256 p5 = product<kL2>(qv, load8<kTail>(r[5] + b, mask));
  __m256 p6 = product<kL2>(qv, load8<kTail>(r[6] + b, mask));
  __m256 p7 = product<kL2>(qv, load8<kTail>(r[7] + b, mask));
  transpose8(p0, p1, p2, p3, p4, p5, p6, p7);
  acc = _mm256_add_ps(acc, p0);
  if (kTail && n < 2) return acc;
  acc = _mm256_add_ps(acc, p1);
  if (kTail && n < 3) return acc;
  acc = _mm256_add_ps(acc, p2);
  if (kTail && n < 4) return acc;
  acc = _mm256_add_ps(acc, p3);
  if (kTail && n < 5) return acc;
  acc = _mm256_add_ps(acc, p4);
  if (kTail && n < 6) return acc;
  acc = _mm256_add_ps(acc, p5);
  if (kTail && n < 7) return acc;
  acc = _mm256_add_ps(acc, p6);
  if (kTail) return acc;
  return _mm256_add_ps(acc, p7);
}

/// out[j] = l2_sq (kL2) or dot of the query against row r[j], j < 8.
template <bool kL2>
ALGAS_AVX2 void score_x8(std::span<const float> q, const float* const* r,
                         float* out) {
  const std::size_t dim = q.size();
  __m256 acc = _mm256_setzero_ps();
  std::size_t b = 0;
  for (; b + 8 <= dim; b += 8) {
    acc = add_block<kL2, false>(acc, q.data(), r, b, 8, __m256i{});
  }
  if (b < dim) {
    const std::size_t n = dim - b;  // 1..7 tail dims: lane i is on iff i < n
    const __m256i mask =
        _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(n)),
                           _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    acc = add_block<kL2, true>(acc, q.data(), r, b, n, mask);
  }
  _mm256_storeu_ps(out, acc);
}

#undef ALGAS_AVX2

/// AVX2 driver for f32 batches, where row_of(k) is entry k's row pointer:
/// groups of 8 rows, the last group padded by repeating its first row into
/// the unused lanes, whose results are dropped. Same outputs as batch_quad.
/// Kept out of line so the entry points stay as small as the portable path
/// needs: a 1-row call is one serial chain, and extra code around it shows.
template <typename RowOf, typename NormOf>
[[gnu::noinline]] void batch_x8(Metric m, std::span<const float> q,
                                float query_norm, std::size_t count,
                                RowOf row_of, NormOf norm_of,
                                std::span<float> out) {
  assert(out.size() >= count);
  const float* rows[8];
  float sums[8];
  for (std::size_t k = 0; k < count; k += 8) {
    const std::size_t n = std::min<std::size_t>(8, count - k);
    for (std::size_t p = k + 8; p < k + 8 + kPrefetchAhead && p < count; ++p) {
      prefetch_row(row_of(p));
    }
    for (std::size_t j = 0; j < 8; ++j) rows[j] = row_of(k + (j < n ? j : 0));
    if (m == Metric::kL2) {
      score_x8<true>(q, rows, sums);
    } else {
      score_x8<false>(q, rows, sums);
    }
    for (std::size_t j = 0; j < n; ++j) {
      switch (m) {
        case Metric::kL2:
          out[k + j] = sums[j];
          break;
        case Metric::kInnerProduct:
          out[k + j] = 1.0f - sums[j];
          break;
        case Metric::kCosine:
          out[k + j] = cosine_from_parts(query_norm, norm_of(k + j), sums[j]);
          break;
      }
    }
  }
}

/// Whether a batch of `count` rows takes the AVX2 kernel: f32 rows, two or
/// more of them, on the avx2x8 tier. Everything else takes the 4-row chains.
bool use_x8(KernelTier tier, const EncodedRows& rows, std::size_t count) {
  return tier == KernelTier::kAvx2x8 && rows.codec == StorageCodec::kF32 &&
         count >= 2;
}

#endif  // __x86_64__

KernelTier detect_host_tier() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2")) return KernelTier::kAvx2x8;
#endif
  return KernelTier::kPortable;
}

/// Calls fn(row_at), where row_at(i) is the accessor of row i under the
/// view's codec: the one codec dispatch of every entry point below.
template <typename Fn>
void with_rows(const EncodedRows& rows, Fn&& fn) {
  const std::size_t dim = rows.dim;
  switch (rows.codec) {
    case StorageCodec::kF32: {
      const auto* base = static_cast<const float*>(rows.data);
      fn([=](std::size_t i) { return F32Row{base + i * dim}; });
      return;
    }
    case StorageCodec::kF16: {
      const auto* base = static_cast<const std::uint16_t*>(rows.data);
      fn([=](std::size_t i) { return F16Row{base + i * dim}; });
      return;
    }
    case StorageCodec::kInt8: {
      const auto* base = static_cast<const std::int8_t*>(rows.data);
      const float* scales = rows.scales;
      fn([=](std::size_t i) { return I8Row{base + i * dim, scales[i]}; });
      return;
    }
  }
  throw std::invalid_argument("distance kernels: unknown storage codec");
}

/// The cosine metric reads every row norm from the caller's table. Kept
/// out of line so the check costs the callers one compare per batch.
[[noreturn]] void throw_missing_norms() {
  throw std::invalid_argument(
      "distance kernels: cosine scoring needs the row-norm table");
}

/// The bodies of distance_batch and distance_batch_range on an explicit
/// tier. The four entry points below are flattened ([[gnu::flatten]]): each
/// inlines its body, the codec dispatch and the 4-row driver, so a 1-row
/// call (one serial chain, about 100 ns) pays no call layer or spilled
/// lambda captures around its chain. Only batch_x8 stays a call.
void gather_on(
    [[maybe_unused]] KernelTier tier, Metric m, std::span<const float> query,
    const EncodedRows& rows, std::span<const NodeId> ids, std::span<float> out,
    std::span<const float> norms, std::optional<float> query_norm) {
  if (ids.empty()) return;
  if (m == Metric::kCosine && norms.empty()) throw_missing_norms();
  const auto q = query.first(rows.dim);
  const float qn = cosine_query_norm(m, q, query_norm);
  const auto norm_of = [&](std::size_t k) { return norms[ids[k]]; };
#if defined(__x86_64__)
  if (use_x8(tier, rows, ids.size())) {
    const auto* base = static_cast<const float*>(rows.data);
    const auto row_of = [&](std::size_t k) { return base + ids[k] * rows.dim; };
    batch_x8(m, q, qn, ids.size(), row_of, norm_of, out);
    return;
  }
#endif
  with_rows(rows, [&](auto row_at) {
    const auto row_of = [&](std::size_t k) { return row_at(ids[k]); };
    batch_quad(m, q, qn, ids.size(), row_of, norm_of, out);
  });
}

void range_on(
    [[maybe_unused]] KernelTier tier, Metric m, std::span<const float> query,
    const EncodedRows& rows, std::size_t first, std::size_t count,
    std::span<float> out, std::span<const float> norms) {
  if (count == 0) return;
  if (m == Metric::kCosine && norms.empty()) throw_missing_norms();
  const auto q = query.first(rows.dim);
  const float qn = cosine_query_norm(m, q, std::nullopt);
  const auto norm_of = [&](std::size_t k) { return norms[first + k]; };
#if defined(__x86_64__)
  if (use_x8(tier, rows, count)) {
    const auto* base = static_cast<const float*>(rows.data) + first * rows.dim;
    const auto row_of = [&](std::size_t k) { return base + k * rows.dim; };
    batch_x8(m, q, qn, count, row_of, norm_of, out);
    return;
  }
#endif
  with_rows(rows, [&](auto row_at) {
    const auto row_of = [&](std::size_t k) { return row_at(first + k); };
    batch_quad(m, q, qn, count, row_of, norm_of, out);
  });
}

}  // namespace

namespace detail {

const char* kernel_tier_name(KernelTier tier) {
  switch (tier) {
    case KernelTier::kPortable:
      return "portable";
    case KernelTier::kAvx2x8:
      return "avx2x8";
  }
  return "unknown";
}

KernelTier host_kernel_tier() {
  static const KernelTier tier = detect_host_tier();
  return tier;
}

[[gnu::flatten]] void distance_batch_on(
    KernelTier tier, Metric m, std::span<const float> query,
    const EncodedRows& rows, std::span<const NodeId> ids, std::span<float> out,
    std::span<const float> norms, std::optional<float> query_norm) {
  gather_on(tier, m, query, rows, ids, out, norms, query_norm);
}

[[gnu::flatten]] void distance_batch_range_on(
    KernelTier tier, Metric m, std::span<const float> query,
    const EncodedRows& rows, std::size_t first, std::size_t count,
    std::span<float> out, std::span<const float> norms) {
  range_on(tier, m, query, rows, first, count, out, norms);
}

}  // namespace detail

const char* distance_kernel_name() {
  return detail::kernel_tier_name(detail::host_kernel_tier());
}

[[gnu::flatten]] void distance_batch(
    Metric m, std::span<const float> query, const EncodedRows& rows,
    std::span<const NodeId> ids, std::span<float> out,
    std::span<const float> norms, std::optional<float> query_norm) {
  gather_on(detail::host_kernel_tier(), m, query, rows, ids, out, norms,
            query_norm);
}

[[gnu::flatten]] void distance_batch_range(
    Metric m, std::span<const float> query, const EncodedRows& rows,
    std::size_t first, std::size_t count, std::span<float> out,
    std::span<const float> norms) {
  range_on(detail::host_kernel_tier(), m, query, rows, first, count, out,
           norms);
}

void row_norms(const EncodedRows& rows, std::size_t first, std::size_t count,
               std::span<float> out) {
  with_rows(rows, [&](auto row_at) {
    for (std::size_t k = 0; k < count; ++k) {
      out[k] = norm_one(row_at(first + k), rows.dim);
    }
  });
}

}  // namespace algas
