// GF(2^61 - 1) arithmetic in AVX2 and AVX-512 lanes, shared by the
// polynomial block kernels (simd_hash.cc), the finite-difference chains
// (hash_chain.cc) and the block point estimator (sketch/point_scan.cc).
//
// Every helper keeps its lanes canonical (< 2^61 - 1). MulMod61 splits each
// 61-bit operand into 32-bit halves for `vpmuludq`; simd_hash.h derives the
// bounds of that decomposition.
//
// GCC 12's AVX-512 intrinsic headers initialize _mm512_undefined_epi32()
// with itself, which -Werror=maybe-uninitialized (and, inside gathers,
// -Werror=uninitialized) flags at every inline site (GCC PR105593). The
// lanes it feeds are fully overwritten, so the warning is a header
// artifact; SKIMJOIN_SIMD_KERNELS_BEGIN/END bracket every kernel that
// inlines such an intrinsic.

#ifndef SKIMJOIN_HASHING_SIMD_FIELD_H_
#define SKIMJOIN_HASHING_SIMD_FIELD_H_

#include <cstdint>

#include "hashing/prime_field.h"

#if defined(__x86_64__) || defined(__i386__)
#define SKIMJOIN_X86_SIMD 1
#include <immintrin.h>
#else
#define SKIMJOIN_X86_SIMD 0
#endif

#define SKIMJOIN_SIMD_KERNELS_BEGIN                                \
  _Pragma("GCC diagnostic push")                                   \
      _Pragma("GCC diagnostic ignored \"-Wmaybe-uninitialized\"")  \
          _Pragma("GCC diagnostic ignored \"-Wuninitialized\"")
#define SKIMJOIN_SIMD_KERNELS_END _Pragma("GCC diagnostic pop")

#if SKIMJOIN_X86_SIMD

namespace skimjoin {
namespace hashing {
namespace simd {

SKIMJOIN_SIMD_KERNELS_BEGIN

// ---- AVX2: 4 × 64-bit lanes ------------------------------------------------

__attribute__((target("avx2"))) inline __m256i MulMod61Avx2(__m256i a,
                                                            __m256i b) {
  const __m256i p = _mm256_set1_epi64x(static_cast<int64_t>(kMersennePrime61));
  const __m256i mask29 = _mm256_set1_epi64x((int64_t{1} << 29) - 1);
  const __m256i a1 = _mm256_srli_epi64(a, 32);
  const __m256i b1 = _mm256_srli_epi64(b, 32);
  // vpmuludq multiplies the LOW 32 bits of each lane, so a/b serve as a0/b0.
  const __m256i p00 = _mm256_mul_epu32(a, b);
  const __m256i p01 = _mm256_mul_epu32(a, b1);
  const __m256i p10 = _mm256_mul_epu32(a1, b);
  const __m256i p11 = _mm256_mul_epu32(a1, b1);
  const __m256i mid = _mm256_add_epi64(p01, p10);  // < 2^62
  // s = (p00 & p) + (p00 >> 61) + (mid mod 2^29) << 32 + (mid >> 29) + 8·p11
  const __m256i s = _mm256_add_epi64(
      _mm256_add_epi64(_mm256_and_si256(p00, p), _mm256_srli_epi64(p00, 61)),
      _mm256_add_epi64(
          _mm256_slli_epi64(_mm256_and_si256(mid, mask29), 32),
          _mm256_add_epi64(_mm256_srli_epi64(mid, 29),
                           _mm256_slli_epi64(p11, 3))));  // < 2^63
  const __m256i r =
      _mm256_add_epi64(_mm256_and_si256(s, p), _mm256_srli_epi64(s, 61));
  // r < 2^61 + 4: one conditional subtract canonicalizes. Lanes are < 2^63,
  // so the signed compare is order-correct.
  const __m256i ge = _mm256_cmpgt_epi64(
      r, _mm256_set1_epi64x(static_cast<int64_t>(kMersennePrime61 - 1)));
  return _mm256_sub_epi64(r, _mm256_and_si256(ge, p));
}

__attribute__((target("avx2"))) inline __m256i AddMod61Avx2(__m256i a,
                                                            __m256i b) {
  const __m256i p = _mm256_set1_epi64x(static_cast<int64_t>(kMersennePrime61));
  const __m256i s = _mm256_add_epi64(a, b);  // both < p ⇒ s < 2^62
  const __m256i ge = _mm256_cmpgt_epi64(
      s, _mm256_set1_epi64x(static_cast<int64_t>(kMersennePrime61 - 1)));
  return _mm256_sub_epi64(s, _mm256_and_si256(ge, p));
}

__attribute__((target("avx2"))) inline __m256i FoldToField61Avx2(__m256i x) {
  const __m256i p = _mm256_set1_epi64x(static_cast<int64_t>(kMersennePrime61));
  const __m256i r =
      _mm256_add_epi64(_mm256_and_si256(x, p), _mm256_srli_epi64(x, 61));
  const __m256i ge = _mm256_cmpgt_epi64(
      r, _mm256_set1_epi64x(static_cast<int64_t>(kMersennePrime61 - 1)));
  return _mm256_sub_epi64(r, _mm256_and_si256(ge, p));
}

// ---- AVX-512F: 8 × 64-bit lanes --------------------------------------------

__attribute__((target("avx512f"))) inline __m512i MulMod61Avx512(__m512i a,
                                                                 __m512i b) {
  const __m512i p = _mm512_set1_epi64(static_cast<int64_t>(kMersennePrime61));
  const __m512i mask29 = _mm512_set1_epi64((int64_t{1} << 29) - 1);
  const __m512i a1 = _mm512_srli_epi64(a, 32);
  const __m512i b1 = _mm512_srli_epi64(b, 32);
  const __m512i p00 = _mm512_mul_epu32(a, b);
  const __m512i p01 = _mm512_mul_epu32(a, b1);
  const __m512i p10 = _mm512_mul_epu32(a1, b);
  const __m512i p11 = _mm512_mul_epu32(a1, b1);
  const __m512i mid = _mm512_add_epi64(p01, p10);
  const __m512i s = _mm512_add_epi64(
      _mm512_add_epi64(_mm512_and_si512(p00, p), _mm512_srli_epi64(p00, 61)),
      _mm512_add_epi64(
          _mm512_slli_epi64(_mm512_and_si512(mid, mask29), 32),
          _mm512_add_epi64(_mm512_srli_epi64(mid, 29),
                           _mm512_slli_epi64(p11, 3))));
  __m512i r =
      _mm512_add_epi64(_mm512_and_si512(s, p), _mm512_srli_epi64(s, 61));
  const __mmask8 ge = _mm512_cmpge_epu64_mask(r, p);
  return _mm512_mask_sub_epi64(r, ge, r, p);
}

__attribute__((target("avx512f"))) inline __m512i AddMod61Avx512(__m512i a,
                                                                 __m512i b) {
  const __m512i p = _mm512_set1_epi64(static_cast<int64_t>(kMersennePrime61));
  const __m512i s = _mm512_add_epi64(a, b);
  const __mmask8 ge = _mm512_cmpge_epu64_mask(s, p);
  return _mm512_mask_sub_epi64(s, ge, s, p);
}

__attribute__((target("avx512f"))) inline __m512i FoldToField61Avx512(
    __m512i x) {
  const __m512i p = _mm512_set1_epi64(static_cast<int64_t>(kMersennePrime61));
  const __m512i r =
      _mm512_add_epi64(_mm512_and_si512(x, p), _mm512_srli_epi64(x, 61));
  const __mmask8 ge = _mm512_cmpge_epu64_mask(r, p);
  return _mm512_mask_sub_epi64(r, ge, r, p);
}

SKIMJOIN_SIMD_KERNELS_END

}  // namespace simd
}  // namespace hashing
}  // namespace skimjoin

#endif  // SKIMJOIN_X86_SIMD

#endif  // SKIMJOIN_HASHING_SIMD_FIELD_H_
