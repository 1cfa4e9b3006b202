#include "hashing/hash_chain.h"

#include "hashing/prime_field.h"
#include "hashing/simd_field.h"
#include "util/logging.h"

namespace skimjoin {
namespace hashing {

HashChain::HashChain(const BucketHash& bucket, const SignHash& sign,
                     uint64_t start) {
  const KWiseHash& field = bucket.poly();
  const KWiseHash& xi = sign.poly();
  SKIMJOIN_CHECK_EQ(field.independence(), 2);
  SKIMJOIN_CHECK_EQ(xi.independence(), 4);
  const uint64_t num_buckets = bucket.num_buckets();
  SKIMJOIN_CHECK_LE(num_buckets, kMaxBuckets);
  state_.num_buckets = num_buckets;
  state_.field_step = MulMod61(field.coefficients()[1], kLanes);
  state_.bucket_step = state_.field_step % num_buckets;
  state_.wrap_step =
      (num_buckets - kMersennePrime61 % num_buckets) % num_buckets;
  const uint64_t first = FoldToField61(start);
  for (uint64_t lane = 0; lane < kLanes; ++lane) {
    // The lane's field point; KWiseHash folds its input, which leaves a
    // point below p unchanged.
    const uint64_t x = AddMod61(first, lane);
    state_.field[lane] = field(x);
    state_.bucket[lane] = state_.field[lane] % num_buckets;
    // The sign polynomial at x, x+8, x+16, x+24 gives every stride-8
    // difference the chain starts from.
    uint64_t at[4];
    for (uint64_t k = 0; k < 4; ++k) at[k] = xi(AddMod61(x, kLanes * k));
    const uint64_t d1 = SubMod61(at[1], at[0]);
    const uint64_t d1_next = SubMod61(at[2], at[1]);
    const uint64_t d2 = SubMod61(d1_next, d1);
    const uint64_t d2_next = SubMod61(SubMod61(at[3], at[2]), d1_next);
    state_.sign[lane] = at[0];
    state_.sign_d1[lane] = d1;
    state_.sign_d2[lane] = d2;
    // A cubic's third difference is the same at every point.
    state_.sign_d3 = SubMod61(d2_next, d2);
  }
}

namespace {

/// x mod m for x < 2m, as a select (a conditional move, not a branch: the
/// bucket wraps about every other step, so a branch would mispredict).
inline uint64_t SubtractIfAtLeast(uint64_t x, uint64_t m) {
  return x >= m ? x - m : x;
}

// Lane-interleaved: the eight lanes' chains are independent, so each
// step's adds overlap instead of waiting on one lane's carries.
void NextScalar(HashChain::State& s, size_t steps, uint32_t* plans) {
  constexpr size_t kLanes = HashChain::kLanes;
  constexpr uint64_t p = kMersennePrime61;
  const uint64_t b = s.num_buckets;
  for (size_t step = 0; step < steps; ++step, plans += kLanes) {
    for (size_t lane = 0; lane < kLanes; ++lane) {
      plans[lane] = static_cast<uint32_t>((s.bucket[lane] << 1) |
                                          (s.sign[lane] & 1));
      s.sign[lane] = AddMod61(s.sign[lane], s.sign_d1[lane]);
      s.sign_d1[lane] = AddMod61(s.sign_d1[lane], s.sign_d2[lane]);
      s.sign_d2[lane] = AddMod61(s.sign_d2[lane], s.sign_d3);
      const uint64_t field = s.field[lane] + s.field_step;
      const bool wrapped = field >= p;
      s.field[lane] = wrapped ? field - p : field;
      const uint64_t bucket =
          SubtractIfAtLeast(s.bucket[lane] + s.bucket_step, b);
      s.bucket[lane] =
          SubtractIfAtLeast(bucket + (wrapped ? s.wrap_step : 0), b);
    }
  }
}

#if SKIMJOIN_X86_SIMD

SKIMJOIN_SIMD_KERNELS_BEGIN

// ---- AVX2: two 4-lane halves -----------------------------------------------

__attribute__((target("avx2"))) inline __m256i Splat256(uint64_t x) {
  return _mm256_set1_epi64x(static_cast<int64_t>(x));
}

__attribute__((target("avx2"))) inline __m256i Load256(const uint64_t* lanes) {
  return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(lanes));
}

__attribute__((target("avx2"))) inline void Store256(uint64_t* lanes,
                                                     __m256i v) {
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), v);
}

__attribute__((target("avx2"))) void NextAvx2(HashChain::State& s,
                                              size_t steps, uint32_t* plans) {
  // Every lane is below 2^62, so the signed compares order correctly.
  const __m256i p = Splat256(kMersennePrime61);
  const __m256i p_max = Splat256(kMersennePrime61 - 1);
  const __m256i d3 = Splat256(s.sign_d3);
  const __m256i field_step = Splat256(s.field_step);
  const __m256i bucket_step = Splat256(s.bucket_step);
  const __m256i wrap_step = Splat256(s.wrap_step);
  const __m256i b = Splat256(s.num_buckets);
  const __m256i b_max = Splat256(s.num_buckets - 1);
  const __m256i one = Splat256(1);
  const __m256i lane_order = _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
  __m256i sign[2], d1[2], d2[2], field[2], bucket[2];
  for (size_t h = 0; h < 2; ++h) {
    sign[h] = Load256(s.sign + 4 * h);
    d1[h] = Load256(s.sign_d1 + 4 * h);
    d2[h] = Load256(s.sign_d2 + 4 * h);
    field[h] = Load256(s.field + 4 * h);
    bucket[h] = Load256(s.bucket + 4 * h);
  }
  for (size_t step = 0; step < steps; ++step) {
    __m256i word[2];
    for (size_t h = 0; h < 2; ++h) {
      word[h] = _mm256_or_si256(_mm256_slli_epi64(bucket[h], 1),
                                _mm256_and_si256(sign[h], one));
      sign[h] = simd::AddMod61Avx2(sign[h], d1[h]);
      d1[h] = simd::AddMod61Avx2(d1[h], d2[h]);
      d2[h] = simd::AddMod61Avx2(d2[h], d3);
      const __m256i sum = _mm256_add_epi64(field[h], field_step);
      const __m256i wrapped = _mm256_cmpgt_epi64(sum, p_max);
      field[h] = _mm256_sub_epi64(sum, _mm256_and_si256(wrapped, p));
      __m256i r = _mm256_add_epi64(bucket[h], bucket_step);
      r = _mm256_sub_epi64(
          r, _mm256_and_si256(_mm256_cmpgt_epi64(r, b_max), b));
      r = _mm256_add_epi64(r, _mm256_and_si256(wrapped, wrap_step));
      bucket[h] = _mm256_sub_epi64(
          r, _mm256_and_si256(_mm256_cmpgt_epi64(r, b_max), b));
    }
    // Words fit 32 bits: interleave the halves' low words, then restore
    // lane order.
    const __m256i packed =
        _mm256_blend_epi32(word[0], _mm256_slli_epi64(word[1], 32), 0xAA);
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(plans + 8 * step),
                        _mm256_permutevar8x32_epi32(packed, lane_order));
  }
  for (size_t h = 0; h < 2; ++h) {
    Store256(s.sign + 4 * h, sign[h]);
    Store256(s.sign_d1 + 4 * h, d1[h]);
    Store256(s.sign_d2 + 4 * h, d2[h]);
    Store256(s.field + 4 * h, field[h]);
    Store256(s.bucket + 4 * h, bucket[h]);
  }
}

// ---- AVX-512F: one 8-lane vector -------------------------------------------

__attribute__((target("avx512f"))) inline __m512i Splat512(uint64_t x) {
  return _mm512_set1_epi64(static_cast<int64_t>(x));
}

__attribute__((target("avx512f"))) void NextAvx512(HashChain::State& s,
                                                   size_t steps,
                                                   uint32_t* plans) {
  const __m512i p = Splat512(kMersennePrime61);
  const __m512i d3 = Splat512(s.sign_d3);
  const __m512i field_step = Splat512(s.field_step);
  const __m512i bucket_step = Splat512(s.bucket_step);
  const __m512i wrap_step = Splat512(s.wrap_step);
  const __m512i b = Splat512(s.num_buckets);
  const __m512i one = Splat512(1);
  __m512i sign = _mm512_loadu_si512(s.sign);
  __m512i d1 = _mm512_loadu_si512(s.sign_d1);
  __m512i d2 = _mm512_loadu_si512(s.sign_d2);
  __m512i field = _mm512_loadu_si512(s.field);
  __m512i bucket = _mm512_loadu_si512(s.bucket);
  for (size_t step = 0; step < steps; ++step) {
    const __m512i word = _mm512_or_si512(_mm512_slli_epi64(bucket, 1),
                                         _mm512_and_si512(sign, one));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(plans + 8 * step),
                        _mm512_cvtepi64_epi32(word));
    sign = simd::AddMod61Avx512(sign, d1);
    d1 = simd::AddMod61Avx512(d1, d2);
    d2 = simd::AddMod61Avx512(d2, d3);
    field = _mm512_add_epi64(field, field_step);
    const __mmask8 wrapped = _mm512_cmpge_epu64_mask(field, p);
    field = _mm512_mask_sub_epi64(field, wrapped, field, p);
    bucket = _mm512_add_epi64(bucket, bucket_step);
    bucket = _mm512_mask_sub_epi64(
        bucket, _mm512_cmpge_epu64_mask(bucket, b), bucket, b);
    bucket = _mm512_mask_add_epi64(bucket, wrapped, bucket, wrap_step);
    bucket = _mm512_mask_sub_epi64(
        bucket, _mm512_cmpge_epu64_mask(bucket, b), bucket, b);
  }
  _mm512_storeu_si512(s.sign, sign);
  _mm512_storeu_si512(s.sign_d1, d1);
  _mm512_storeu_si512(s.sign_d2, d2);
  _mm512_storeu_si512(s.field, field);
  _mm512_storeu_si512(s.bucket, bucket);
}

SKIMJOIN_SIMD_KERNELS_END

#endif  // SKIMJOIN_X86_SIMD

}  // namespace

void HashChain::Next(size_t n, uint32_t* plans, SimdLevel level) {
  const size_t steps = (n + kLanes - 1) / kLanes;
#if SKIMJOIN_X86_SIMD
  switch (level) {
    case SimdLevel::kAvx512:
      NextAvx512(state_, steps, plans);
      return;
    case SimdLevel::kAvx2:
      NextAvx2(state_, steps, plans);
      return;
    case SimdLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  NextScalar(state_, steps, plans);
}

}  // namespace hashing
}  // namespace skimjoin
