#include "hashing/simd_hash.h"

#include <cstdlib>

#include "hashing/prime_field.h"
#include "hashing/simd_field.h"

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

}  // namespace hashing
}  // namespace skimjoin
