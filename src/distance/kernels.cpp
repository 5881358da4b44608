#include "distance/kernels.hpp"

#include <cassert>
#include <cmath>
#include <optional>
#include <stdexcept>

#include "common/half.hpp"

namespace algas {

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

/// Generic driver: fetches row accessors through `row_of(k)` and row norms
/// through `norm_of(k)` (cosine only), walking the batch in groups of four.
template <typename RowOf, typename NormOf>
void batch_impl(Metric m, std::span<const float> q, float query_norm,
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

void distance_batch(Metric m, std::span<const float> query,
                    const EncodedRows& rows, std::span<const NodeId> ids,
                    std::span<float> out, std::span<const float> norms,
                    std::optional<float> query_norm) {
  if (ids.empty()) return;
  if (m == Metric::kCosine && norms.empty()) throw_missing_norms();
  const auto q = query.first(rows.dim);
  const float qn = cosine_query_norm(m, q, query_norm);
  with_rows(rows, [&](auto row_at) {
    const auto row_of = [&](std::size_t k) { return row_at(ids[k]); };
    const auto norm_of = [&](std::size_t k) { return norms[ids[k]]; };
    batch_impl(m, q, qn, ids.size(), row_of, norm_of, out);
  });
}

void distance_batch_range(Metric m, std::span<const float> query,
                          const EncodedRows& rows, std::size_t first,
                          std::size_t count, std::span<float> out,
                          std::span<const float> norms) {
  if (count == 0) return;
  if (m == Metric::kCosine && norms.empty()) throw_missing_norms();
  const auto q = query.first(rows.dim);
  const float qn = cosine_query_norm(m, q, std::nullopt);
  with_rows(rows, [&](auto row_at) {
    const auto row_of = [&](std::size_t k) { return row_at(first + k); };
    const auto norm_of = [&](std::size_t k) { return norms[first + k]; };
    batch_impl(m, q, qn, count, row_of, norm_of, out);
  });
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
