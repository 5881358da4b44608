#include "distance/kernels.hpp"

#include <cmath>
#include <cstring>
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

/// How many rows ahead of the one being scored to prefetch. Rows are dim
/// elements (hundreds of bytes), so a small lookahead covers the memory
/// latency without thrashing L1.
constexpr std::size_t kPrefetchAhead = 8;

// Row accessors: one per codec. operator[] yields the float distance()
// would see — a plain load for f32, an exact widening for f16, scale * code
// for int8 — so each codec's result is bitwise-equal to decoding its row
// and scoring the floats.

struct F32Row {
  using Elem = float;
  const Elem* p;
  float operator[](std::size_t i) const { return p[i]; }
};

struct F16Row {
  using Elem = std::uint16_t;
  const Elem* p;
  float operator[](std::size_t i) const { return half_to_float(p[i]); }
};

struct I8Row {
  using Elem = std::int8_t;
  const Elem* p;
  float scale;  ///< per-row symmetric dequantization scale
  float operator[](std::size_t i) const {
    return scale * static_cast<float>(p[i]);
  }
};

/// l2_sq (kL2) or dot of the query against a row, in the warp lane order
/// (detail::lane_sum), one element at a time. Hosts without AVX2 and F16C
/// run it, and row_norms does.
struct PortableSum {
  template <bool kL2, typename Row>
  static float sum(std::span<const float> q, Row r) {
    return detail::lane_sum(q.size(), [&](std::size_t i) {
      if constexpr (kL2) {
        const float d = q[i] - r[i];
        return d * d;
      } else {
        return q[i] * r[i];
      }
    });
  }
};

#if defined(__x86_64__)

// The same lane order with four 8-float registers holding lanes 0-31:
// register b, lane j is warp lane 8b + j. Each 32-dimension block adds one
// product vector to each register, so every lane adds its dimensions in
// lane_sum's order, and the reduction below is lane_sum's tree. Dimensions
// past the row's end read as +0 and add +0, which leaves a partial that
// started at +0 unchanged (such a partial is never -0). kernels.cpp is
// compiled with -ffp-contract=off (src/CMakeLists.txt), so nothing fuses
// into an FMA and every host gets the same bits.
#define ALGAS_AVX2 __attribute__((target("avx2,f16c")))

/// Elements i..i+7 of a row, widened to floats by the codec's two exact
/// operations: vcvtph2ps is half_to_float, and int8 is one int-to-float
/// conversion and one multiply by the row's scale, as in I8Row.
ALGAS_AVX2 inline __m256 load8(F32Row r, std::size_t i) {
  return _mm256_loadu_ps(r.p + i);
}

ALGAS_AVX2 inline __m256 load8(F16Row r, std::size_t i) {
  return _mm256_cvtph_ps(
      _mm_loadu_si128(reinterpret_cast<const __m128i*>(r.p + i)));
}

ALGAS_AVX2 inline __m256 load8(I8Row r, std::size_t i) {
  const __m128i codes =
      _mm_loadl_epi64(reinterpret_cast<const __m128i*>(r.p + i));
  return _mm256_mul_ps(_mm256_set1_ps(r.scale),
                       _mm256_cvtepi32_ps(_mm256_cvtepi8_epi32(codes)));
}

/// Elements i..i+n-1 (n < 8) and +0 in the remaining lanes, reading
/// nothing past the row's last element. Zero codes widen to +0.
template <typename Row>
ALGAS_AVX2 inline __m256 load_tail(Row r, std::size_t i, std::size_t n) {
  typename Row::Elem buf[8] = {};
  std::memcpy(buf, r.p + i, n * sizeof(buf[0]));
  r.p = buf;
  return load8(r, 0);
}

template <bool kL2>
ALGAS_AVX2 inline __m256 term(__m256 q, __m256 r) {
  if constexpr (kL2) {
    const __m256 d = _mm256_sub_ps(q, r);
    return _mm256_mul_ps(d, d);
  } else {
    return _mm256_mul_ps(q, r);
  }
}

/// Adds term() of dimensions at..at+7 to `acc`, with +0 for those past
/// dim; nothing when at >= dim. Serves the last < 32 dimensions.
template <bool kL2, typename Row>
ALGAS_AVX2 inline void add_tail(__m256& acc, F32Row q, Row r, std::size_t at,
                                std::size_t dim) {
  if (at >= dim) return;
  const std::size_t n = dim - at;
  acc = _mm256_add_ps(
      acc, n >= 8 ? term<kL2>(load8(q, at), load8(r, at))
                  : term<kL2>(load_tail(q, at, n), load_tail(r, at, n)));
}

struct Avx2Sum {
  template <bool kL2, typename Row>
  ALGAS_AVX2 static float sum(std::span<const float> q, Row r) {
    const std::size_t dim = q.size();
    const F32Row qr{q.data()};
    // Named registers, not an array: GCC at -O2 keeps an array on the stack.
    __m256 a0 = _mm256_setzero_ps(), a1 = a0, a2 = a0, a3 = a0;
    std::size_t i = 0;
    for (; i + detail::kWarpLanes <= dim; i += detail::kWarpLanes) {
      a0 = _mm256_add_ps(a0, term<kL2>(load8(qr, i), load8(r, i)));
      a1 = _mm256_add_ps(a1, term<kL2>(load8(qr, i + 8), load8(r, i + 8)));
      a2 = _mm256_add_ps(a2, term<kL2>(load8(qr, i + 16), load8(r, i + 16)));
      a3 = _mm256_add_ps(a3, term<kL2>(load8(qr, i + 24), load8(r, i + 24)));
    }
    add_tail<kL2>(a0, qr, r, i, dim);
    add_tail<kL2>(a1, qr, r, i + 8, dim);
    add_tail<kL2>(a2, qr, r, i + 16, dim);
    add_tail<kL2>(a3, qr, r, i + 24, dim);
    // lane_sum's tree: offsets 16 and 8 across registers, then 4, 2 and 1
    // inside one.
    const __m256 s8 =
        _mm256_add_ps(_mm256_add_ps(a0, a2), _mm256_add_ps(a1, a3));
    __m128 s = _mm_add_ps(_mm256_castps256_ps128(s8),
                          _mm256_extractf128_ps(s8, 1));
    s = _mm_add_ps(s, _mm_movehl_ps(s, s));
    s = _mm_add_ss(s, _mm_shuffle_ps(s, s, 1));
    return _mm_cvtss_f32(s);
  }
};

#undef ALGAS_AVX2
#endif  // __x86_64__

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

/// Scores `count` rows, one at a time: row_of(k) is entry k's accessor and
/// norm_of(k) its norm (cosine only). Sum::sum is the tier's lane-order
/// l2_sq or dot.
template <typename Sum, typename RowOf, typename NormOf>
void score_rows(Metric m, std::span<const float> q, float query_norm,
                std::size_t count, RowOf row_of, NormOf norm_of,
                std::span<float> out) {
  for (std::size_t k = 0; k < count; ++k) {
    if (k + kPrefetchAhead < count) prefetch_row(row_of(k + kPrefetchAhead).p);
    const auto r = row_of(k);
    switch (m) {
      case Metric::kL2:
        out[k] = Sum::template sum<true>(q, r);
        break;
      case Metric::kInnerProduct:
        out[k] = 1.0f - Sum::template sum<false>(q, r);
        break;
      case Metric::kCosine:
        out[k] = cosine_from_parts(query_norm, norm_of(k),
                                   Sum::template sum<false>(q, r));
        break;
    }
  }
}

/// The tier's driver over row_of(0..count): the one place the tier is read.
template <typename RowOf, typename NormOf>
void score_on(KernelTier tier, Metric m, std::span<const float> q,
              float query_norm, std::size_t count, RowOf row_of,
              NormOf norm_of, std::span<float> out) {
#if defined(__x86_64__)
  if (tier == KernelTier::kAvx2) {
    score_rows<Avx2Sum>(m, q, query_norm, count, row_of, norm_of, out);
    return;
  }
#endif
  (void)tier;
  score_rows<PortableSum>(m, q, query_norm, count, row_of, norm_of, out);
}

KernelTier detect_host_tier() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("avx2") && __builtin_cpu_supports("f16c")) {
    return KernelTier::kAvx2;
  }
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

}  // namespace

namespace detail {

const char* kernel_tier_name(KernelTier tier) {
  switch (tier) {
    case KernelTier::kPortable:
      return "portable";
    case KernelTier::kAvx2:
      return "avx2";
  }
  return "unknown";
}

KernelTier host_kernel_tier() {
  static const KernelTier tier = detect_host_tier();
  return tier;
}

void distance_batch_on(KernelTier tier, Metric m, std::span<const float> query,
                       const EncodedRows& rows, std::span<const NodeId> ids,
                       std::span<float> out, std::span<const float> norms,
                       std::optional<float> query_norm) {
  if (ids.empty()) return;
  if (m == Metric::kCosine && norms.empty()) throw_missing_norms();
  const auto q = query.first(rows.dim);
  const float qn = cosine_query_norm(m, q, query_norm);
  with_rows(rows, [&](auto row_at) {
    score_on(
        tier, m, q, qn, ids.size(),
        [&](std::size_t k) { return row_at(ids[k]); },
        [&](std::size_t k) { return norms[ids[k]]; }, out);
  });
}

void distance_batch_range_on(KernelTier tier, Metric m,
                             std::span<const float> query,
                             const EncodedRows& rows, std::size_t first,
                             std::size_t count, std::span<float> out,
                             std::span<const float> norms) {
  if (count == 0) return;
  if (m == Metric::kCosine && norms.empty()) throw_missing_norms();
  const auto q = query.first(rows.dim);
  const float qn = cosine_query_norm(m, q, std::nullopt);
  with_rows(rows, [&](auto row_at) {
    score_on(
        tier, m, q, qn, count,
        [&](std::size_t k) { return row_at(first + k); },
        [&](std::size_t k) { return norms[first + k]; }, out);
  });
}

}  // namespace detail

const char* distance_kernel_name() {
  return detail::kernel_tier_name(detail::host_kernel_tier());
}

void distance_batch(Metric m, std::span<const float> query,
                    const EncodedRows& rows, std::span<const NodeId> ids,
                    std::span<float> out, std::span<const float> norms,
                    std::optional<float> query_norm) {
  detail::distance_batch_on(detail::host_kernel_tier(), m, query, rows, ids,
                            out, norms, query_norm);
}

void distance_batch_range(Metric m, std::span<const float> query,
                          const EncodedRows& rows, std::size_t first,
                          std::size_t count, std::span<float> out,
                          std::span<const float> norms) {
  detail::distance_batch_range_on(detail::host_kernel_tier(), m, query, rows,
                                  first, count, out, norms);
}

void row_norms(const EncodedRows& rows, std::size_t first, std::size_t count,
               std::span<float> out) {
  with_rows(rows, [&](auto row_at) {
    for (std::size_t k = 0; k < count; ++k) {
      const auto r = row_at(first + k);
      out[k] = std::sqrt(detail::lane_sum(
          rows.dim, [&](std::size_t i) { return r[i] * r[i]; }));
    }
  });
}

}  // namespace algas
