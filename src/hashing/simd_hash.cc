#include "hashing/simd_hash.h"

#include <cstdlib>

#include "hashing/prime_field.h"
#include "hashing/simd_field.h"
#include "util/logging.h"

namespace skimjoin {
namespace hashing {

const char* SimdLevelName(SimdLevel level) {
  switch (level) {
    case SimdLevel::kAvx512:
      return "avx512";
    case SimdLevel::kAvx2:
      return "avx2";
    case SimdLevel::kScalar:
      break;
  }
  return "scalar";
}

SimdLevel DetectSimdLevel() {
  static const SimdLevel level = [] {
    const char* force = std::getenv("SKIMJOIN_FORCE_SCALAR");
    if (force != nullptr && force[0] == '1') return SimdLevel::kScalar;
#if SKIMJOIN_X86_SIMD
    if (__builtin_cpu_supports("avx512f")) return SimdLevel::kAvx512;
    if (__builtin_cpu_supports("avx2")) return SimdLevel::kAvx2;
#endif
    return SimdLevel::kScalar;
  }();
  return level;
}

namespace {

/// The scalar Horner loop, lifted verbatim from KWiseHash::operator() — the
/// reference every vector lane must match bit for bit, and the kernel for
/// block tails shorter than the lane width.
uint64_t ScalarEval(std::span<const uint64_t> coefficients, uint64_t x) {
  const uint64_t v = FoldToField61(x);
  uint64_t acc = coefficients.back();
  for (size_t i = coefficients.size() - 1; i-- > 0;) {
    acc = AddMod61(MulMod61(acc, v), coefficients[i]);
  }
  return acc;
}

void PolyEvalScalar(std::span<const uint64_t> coefficients,
                    const uint64_t* values, size_t n, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) out[i] = ScalarEval(coefficients, values[i]);
}

/// PolyEvalTables' fallback: ScalarEval's Horner loop, table by table, over
/// the table-per-lane rows.
void PolyEvalTablesScalar(const uint64_t* rows, std::span<const size_t> terms,
                          size_t tables, size_t stride, uint64_t x,
                          uint64_t* out) {
  const uint64_t v = FoldToField61(x);
  for (const size_t k : terms) {
    for (size_t t = 0; t < tables; ++t) {
      uint64_t acc = rows[(k - 1) * stride + t];
      for (size_t c = k - 1; c-- > 0;) {
        acc = AddMod61(MulMod61(acc, v), rows[c * stride + t]);
      }
      out[t] = acc;
    }
    rows += k * stride;
    out += stride;
  }
}

#if SKIMJOIN_X86_SIMD

SKIMJOIN_SIMD_KERNELS_BEGIN

using simd::AddMod61Avx2;
using simd::AddMod61Avx512;
using simd::FoldToField61Avx2;
using simd::FoldToField61Avx512;
using simd::MulMod61Avx2;
using simd::MulMod61Avx512;

// ---- AVX2: 4 × 64-bit lanes ------------------------------------------------

__attribute__((target("avx2"))) void PolyEvalAvx2(
    std::span<const uint64_t> coefficients, const uint64_t* values, size_t n,
    uint64_t* out) {
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    const __m256i x =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(values + i));
    const __m256i v = FoldToField61Avx2(x);
    __m256i acc = _mm256_set1_epi64x(
        static_cast<int64_t>(coefficients[coefficients.size() - 1]));
    for (size_t c = coefficients.size() - 1; c-- > 0;) {
      acc = AddMod61Avx2(
          MulMod61Avx2(acc, v),
          _mm256_set1_epi64x(static_cast<int64_t>(coefficients[c])));
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), acc);
  }
  if (i < n) PolyEvalScalar(coefficients, values + i, n - i, out + i);
}

// One value in every lane, one table per lane: x folds once, in scalar.
__attribute__((target("avx2"))) void PolyEvalTablesAvx2(
    const uint64_t* rows, std::span<const size_t> terms, size_t stride,
    uint64_t x, uint64_t* out) {
  const __m256i v = _mm256_set1_epi64x(static_cast<int64_t>(FoldToField61(x)));
  for (const size_t k : terms) {
    for (size_t lane = 0; lane < stride; lane += 4) {
      const uint64_t* column = rows + lane;
      __m256i acc = _mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(column + (k - 1) * stride));
      for (size_t c = k - 1; c-- > 0;) {
        acc = AddMod61Avx2(MulMod61Avx2(acc, v),
                           _mm256_loadu_si256(reinterpret_cast<const __m256i*>(
                               column + c * stride)));
      }
      _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + lane), acc);
    }
    rows += k * stride;
    out += stride;
  }
}

// ---- AVX-512F: 8 × 64-bit lanes --------------------------------------------

__attribute__((target("avx512f"))) void PolyEvalAvx512(
    std::span<const uint64_t> coefficients, const uint64_t* values, size_t n,
    uint64_t* out) {
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    const __m512i x = _mm512_loadu_si512(values + i);
    const __m512i v = FoldToField61Avx512(x);
    __m512i acc = _mm512_set1_epi64(
        static_cast<int64_t>(coefficients[coefficients.size() - 1]));
    for (size_t c = coefficients.size() - 1; c-- > 0;) {
      acc = AddMod61Avx512(
          MulMod61Avx512(acc, v),
          _mm512_set1_epi64(static_cast<int64_t>(coefficients[c])));
    }
    _mm512_storeu_si512(out + i, acc);
  }
  if (i < n) PolyEvalScalar(coefficients, values + i, n - i, out + i);
}

__attribute__((target("avx512f"))) void PolyEvalTablesAvx512(
    const uint64_t* rows, std::span<const size_t> terms, size_t stride,
    uint64_t x, uint64_t* out) {
  const __m512i v = _mm512_set1_epi64(static_cast<int64_t>(FoldToField61(x)));
  for (const size_t k : terms) {
    for (size_t lane = 0; lane < stride; lane += 8) {
      const uint64_t* column = rows + lane;
      __m512i acc = _mm512_loadu_si512(column + (k - 1) * stride);
      for (size_t c = k - 1; c-- > 0;) {
        acc = AddMod61Avx512(MulMod61Avx512(acc, v),
                             _mm512_loadu_si512(column + c * stride));
      }
      _mm512_storeu_si512(out + lane, acc);
    }
    rows += k * stride;
    out += stride;
  }
}

SKIMJOIN_SIMD_KERNELS_END

#endif  // SKIMJOIN_X86_SIMD

}  // namespace

void PolyEvalBlock(std::span<const uint64_t> coefficients,
                   const uint64_t* values, size_t n, uint64_t* out,
                   SimdLevel level) {
#if SKIMJOIN_X86_SIMD
  switch (level) {
    case SimdLevel::kAvx512:
      PolyEvalAvx512(coefficients, values, n, out);
      return;
    case SimdLevel::kAvx2:
      PolyEvalAvx2(coefficients, values, n, out);
      return;
    case SimdLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  PolyEvalScalar(coefficients, values, n, out);
}

PolyLanes::PolyLanes(size_t tables, std::span<const size_t> terms)
    : tables_(tables),
      stride_((tables + 7) / 8 * 8),
      terms_(terms.begin(), terms.end()) {
  SKIMJOIN_CHECK_GE(tables, 1u);
  size_t rows = 0;
  for (const size_t k : terms_) {
    SKIMJOIN_CHECK_GE(k, 1u);
    rows += k;
  }
  rows_.assign(rows * stride_, 0);
}

void PolyLanes::Set(size_t family, size_t table,
                    std::span<const uint64_t> coefficients) {
  SKIMJOIN_CHECK_LT(family, terms_.size());
  SKIMJOIN_CHECK_LT(table, tables_);
  SKIMJOIN_CHECK_EQ(coefficients.size(), terms_[family]);
  uint64_t* row = rows_.data();
  for (size_t f = 0; f < family; ++f) row += terms_[f] * stride_;
  for (size_t c = 0; c < coefficients.size(); ++c) {
    row[c * stride_ + table] = coefficients[c];
  }
}

uint64_t PolyLanes::MemoryBytes() const {
  return sizeof(*this) + terms_.capacity() * sizeof(size_t) +
         rows_.capacity() * sizeof(uint64_t);
}

void PolyEvalTables(const PolyLanes& lanes, uint64_t x, uint64_t* out,
                    SimdLevel level) {
#if SKIMJOIN_X86_SIMD
  switch (level) {
    case SimdLevel::kAvx512:
      PolyEvalTablesAvx512(lanes.rows_.data(), lanes.terms_, lanes.stride_, x,
                           out);
      return;
    case SimdLevel::kAvx2:
      PolyEvalTablesAvx2(lanes.rows_.data(), lanes.terms_, lanes.stride_, x,
                         out);
      return;
    case SimdLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  PolyEvalTablesScalar(lanes.rows_.data(), lanes.terms_, lanes.tables_,
                       lanes.stride_, x, out);
}

}  // namespace hashing
}  // namespace skimjoin
