#include "sketch/point_scan.h"

#include <algorithm>
#include <array>

#include "hashing/simd_field.h"
#include "util/logging.h"
#include "util/stats.h"

namespace skimjoin {
namespace sketch {

namespace {

constexpr size_t kMedianTables = 7;

// Seven-table estimates of values [from, to) of a block: gather each
// table's counter, negate it where the plan word's sign bit is set, and take
// the median (MedianOf7). The vector kernels below do the same a vector of
// values at a time and leave their tails to this one.
void Median7Scalar(const uint32_t* plans, size_t stride,
                   const int64_t* counters, uint64_t num_buckets, size_t from,
                   size_t to, int64_t* out) {
  for (size_t i = from; i < to; ++i) {
    std::array<int64_t, kMedianTables> column;
    for (size_t table = 0; table < kMedianTables; ++table) {
      const uint32_t word = plans[table * stride + i];
      column[table] = SignedCounter(
          (word & 1) != 0, counters[table * num_buckets + (word >> 1)]);
    }
    out[i] = MedianOf7(column);
  }
}

#if SKIMJOIN_X86_SIMD

SKIMJOIN_SIMD_KERNELS_BEGIN

// Median7Scalar in vector lanes: the seven gathered vectors are sorted with
// kSortingNetwork7 and the middle one is the median. They return where their
// whole vectors ended and leave the tail to the caller: a tail call from a
// vector kernel into scalar code skips the vzeroupper that a return gets,
// and dirty upper register halves then slow every SSE instruction that
// follows on the thread (an engine set-up after a skim measured ~40%
// slower on an AVX-512 machine).

__attribute__((target("avx512f"))) size_t Median7Avx512(
    const uint32_t* plans, size_t stride, const int64_t* counters,
    uint64_t num_buckets, size_t from, size_t to, int64_t* out) {
  const __m512i one = _mm512_set1_epi64(1);
  const __m512i zero = _mm512_setzero_si512();
  size_t i = from;
  for (; i + 8 <= to; i += 8) {
    __m512i v[kMedianTables];
    for (size_t table = 0; table < kMedianTables; ++table) {
      const __m512i words = _mm512_cvtepu32_epi64(_mm256_loadu_si256(
          reinterpret_cast<const __m256i*>(plans + table * stride + i)));
      const __m512i counter =
          _mm512_i64gather_epi64(_mm512_srli_epi64(words, 1),
                                 counters + table * num_buckets, 8);
      v[table] = _mm512_mask_sub_epi64(
          counter, _mm512_test_epi64_mask(words, one), zero, counter);
    }
#pragma GCC unroll 16
    for (const auto& [a, b] : kSortingNetwork7) {
      const __m512i low = _mm512_min_epi64(v[a], v[b]);
      v[b] = _mm512_max_epi64(v[a], v[b]);
      v[a] = low;
    }
    _mm512_storeu_si512(out + i, v[3]);
  }
  return i;
}

__attribute__((target("avx2"))) size_t Median7Avx2(
    const uint32_t* plans, size_t stride, const int64_t* counters,
    uint64_t num_buckets, size_t from, size_t to, int64_t* out) {
  const __m256i one = _mm256_set1_epi64x(1);
  const __m256i zero = _mm256_setzero_si256();
  size_t i = from;
  for (; i + 4 <= to; i += 4) {
    __m256i v[kMedianTables];
    for (size_t table = 0; table < kMedianTables; ++table) {
      const __m256i words = _mm256_cvtepu32_epi64(_mm_loadu_si128(
          reinterpret_cast<const __m128i*>(plans + table * stride + i)));
      const __m256i counter = _mm256_i64gather_epi64(
          reinterpret_cast<const long long*>(counters +
                                             table * num_buckets),
          _mm256_srli_epi64(words, 1), 8);
      // All ones where ξ = -1: (c ^ m) - m negates exactly there.
      const __m256i negative =
          _mm256_sub_epi64(zero, _mm256_and_si256(words, one));
      v[table] = _mm256_sub_epi64(_mm256_xor_si256(counter, negative),
                                  negative);
    }
    // AVX2 has no 64-bit min/max: a compare and two blends.
#pragma GCC unroll 16
    for (const auto& [a, b] : kSortingNetwork7) {
      const __m256i greater = _mm256_cmpgt_epi64(v[a], v[b]);
      const __m256i low = _mm256_blendv_epi8(v[a], v[b], greater);
      v[b] = _mm256_blendv_epi8(v[b], v[a], greater);
      v[a] = low;
    }
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i), v[3]);
  }
  return i;
}

SKIMJOIN_SIMD_KERNELS_END

#endif  // SKIMJOIN_X86_SIMD

void Median7(const uint32_t* plans, size_t stride, const int64_t* counters,
             uint64_t num_buckets, size_t from, size_t to, int64_t* out,
             hashing::SimdLevel level) {
#if SKIMJOIN_X86_SIMD
  switch (level) {
    case hashing::SimdLevel::kAvx512:
      from = Median7Avx512(plans, stride, counters, num_buckets, from, to, out);
      break;
    case hashing::SimdLevel::kAvx2:
      from = Median7Avx2(plans, stride, counters, num_buckets, from, to, out);
      break;
    case hashing::SimdLevel::kScalar:
      break;
  }
#else
  (void)level;
#endif
  Median7Scalar(plans, stride, counters, num_buckets, from, to, out);
}

}  // namespace

PointScan::PointScan(const HashSketch& sketch, uint64_t lo, uint64_t hi,
                     hashing::SimdLevel level)
    : sketch_(sketch),
      next_lo_(lo),
      hi_(hi),
      level_(level),
      estimates_(kBlockSize) {
  SKIMJOIN_CHECK_LE(lo, hi);
  const uint64_t tables = sketch.config().num_tables;
  if (sketch.config().num_buckets > hashing::HashChain::kMaxBuckets) return;
  chains_.reserve(tables);
  for (uint64_t table = 0; table < tables; ++table) {
    chains_.emplace_back(sketch.bucket_hash(table), sketch.sign_hash(table),
                         lo);
  }
  plans_.resize(tables * kBlockSize);
  column_.resize(tables);
}

bool PointScan::NextBlock() {
  if (next_lo_ == hi_) {
    block_size_ = 0;
    return false;
  }
  block_lo_ = next_lo_;
  block_size_ = static_cast<size_t>(
      std::min<uint64_t>(kBlockSize, hi_ - next_lo_));
  next_lo_ += block_size_;
  for (size_t table = 0; table < chains_.size(); ++table) {
    chains_[table].Next(block_size_, &plans_[table * kBlockSize], level_);
  }
  Reestimate(0);
  return true;
}

void PointScan::Reestimate(size_t from) {
  if (chains_.empty()) {
    for (size_t i = from; i < block_size_; ++i) {
      estimates_[i] = sketch_.PointEstimate(block_lo_ + i);
    }
    return;
  }
  const int64_t* counters = sketch_.CounterArray().data();
  const uint64_t num_buckets = sketch_.config().num_buckets;
  if (chains_.size() == kMedianTables) {
    Median7(plans_.data(), kBlockSize, counters, num_buckets, from,
            block_size_, estimates_.data(), level_);
    return;
  }
  for (size_t i = from; i < block_size_; ++i) {
    for (size_t table = 0; table < chains_.size(); ++table) {
      const uint32_t word = plans_[table * kBlockSize + i];
      column_[table] = SignedCounter(
          (word & 1) != 0, counters[table * num_buckets + (word >> 1)]);
    }
    estimates_[i] = MedianInt64(std::span<int64_t>(column_));
  }
}

}  // namespace sketch
}  // namespace skimjoin
