// The kFast update kernel of the TableSketch core under HashSketch and
// CountMinSketch (DESIGN.md §10). Private to sketch/table_sketch.cc.

#ifndef SKIMJOIN_SKETCH_PLAN_KERNEL_H_
#define SKIMJOIN_SKETCH_PLAN_KERNEL_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hashing/hash_plan_cache.h"
#include "hashing/kwise_hash.h"
#include "hashing/sign_hash.h"
#include "hashing/simd_hash.h"
#include "sketch/kernel.h"
#include "stream/stream_element.h"

namespace skimjoin {
namespace sketch {
namespace internal {

/// The kFast kernel over one table-of-buckets sketch: a view of its hash
/// families, counters and plan cache, cheap enough to build per call. A
/// plan word holds one table's bucket; HashSketch (kSigned) packs its ±1
/// sign into bit 0 (hashing::PackBucketSign), Count-Min stores the bare
/// bucket.
template <bool kSigned>
class PlanKernel {
 public:
  /// `signs` is empty unless kSigned. `counters` is row-major by table,
  /// num_buckets per row.
  PlanKernel(std::span<const hashing::BucketHash> buckets,
             std::span<const hashing::SignHash> signs,
             std::span<int64_t> counters, uint64_t num_buckets,
             hashing::HashPlanCache* cache)
      : buckets_(buckets),
        signs_(signs),
        counters_(counters),
        num_buckets_(num_buckets),
        cache_(cache) {}

  /// One element: a cache hit costs one probe and `s` counter adds.
  void Update(uint64_t value, int64_t weight) const {
    bool hit = false;
    uint32_t* plan = cache_->Probe(value, &hit);
    if (!hit) FillPlan(value, plan);
    ApplyPlan(plan, weight);
  }

  /// The blocked hash→scatter batch. Phase 1 applies cache hits on the spot
  /// — the probe just pulled the plan into L1 — and evaluates misses; phase
  /// 2 scatters staged misses table-major with prefetch. Counters only ever
  /// accumulate integer adds, which commute exactly, so the hit/miss split
  /// leaves every final counter bit-identical to the reference kernel.
  void UpdateBatch(std::span<const stream::StreamElement> elements) const {
    const uint64_t tables = buckets_.size();
    // Function-local thread_local scratch: zero allocations per batch, and
    // each ingest worker gets its own copy, so the sketch itself stays
    // cheaply copyable.
    static thread_local std::vector<uint32_t> plan_scratch;
    static thread_local std::vector<int64_t> weight_scratch;
    static thread_local std::vector<uint64_t> value_scratch;
    plan_scratch.resize(kBatchBlockSize * tables);
    weight_scratch.resize(kBatchBlockSize);
    value_scratch.resize(kBatchBlockSize);
    constexpr size_t kPrefetchDistance = 8;
    // Staging plans for a table-major scatter only pays once the counter
    // array outgrows the fast cache levels — below that, every bucket line
    // is resident anyway and the extra scratch traffic is pure loss
    // (measured: ~20% slower at 56 KiB of counters, ~20% faster at 3.5
    // MiB). Small shapes therefore apply misses on the spot too.
    constexpr uint64_t kScatterStageBytes = uint64_t{1} << 21;
    const bool stage = counters_.size() * sizeof(int64_t) > kScatterStageBytes;
    const hashing::SimdLevel simd = hashing::DetectSimdLevel();
    for (size_t begin = 0; begin < elements.size(); begin += kBatchBlockSize) {
      const size_t n = std::min(kBatchBlockSize, elements.size() - begin);
      size_t pending = 0;
      if (simd != hashing::SimdLevel::kScalar) {
        // SIMD phase 1: probe with the non-claiming Lookup — Probe would
        // claim the slot before the deferred vector fill, so a duplicate
        // value later in the block would hit a claimed-but-unfilled plan.
        // Misses collect into the value scratch for one block evaluation,
        // then install into the cache. A duplicate miss inside a block is
        // evaluated (and installed) twice with the same result — counters
        // stay bit-identical, only the hit/miss tallies shift against the
        // scalar phase 1.
        for (size_t i = 0; i < n; ++i) {
          const stream::StreamElement& element = elements[begin + i];
          const uint32_t* plan = cache_->Lookup(element.value);
          if (plan != nullptr) {
            ApplyPlan(plan, element.weight);
            continue;
          }
          value_scratch[pending] = element.value;
          weight_scratch[pending] = element.weight;
          ++pending;
        }
        FillPlansBlock(value_scratch.data(), pending, plan_scratch.data(),
                       simd);
        for (size_t i = 0; i < pending; ++i) {
          std::copy_n(&plan_scratch[i * tables], tables,
                      cache_->Insert(value_scratch[i]));
        }
        if (!stage) {
          for (size_t i = 0; i < pending; ++i) {
            ApplyPlan(&plan_scratch[i * tables], weight_scratch[i]);
          }
          pending = 0;
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          const stream::StreamElement& element = elements[begin + i];
          bool hit = false;
          uint32_t* plan = cache_->Probe(element.value, &hit);
          if (hit) {
            ApplyPlan(plan, element.weight);
            continue;
          }
          FillPlan(element.value, plan);
          if (!stage) {
            ApplyPlan(plan, element.weight);
            continue;
          }
          std::copy_n(plan, tables, &plan_scratch[pending * tables]);
          weight_scratch[pending] = element.weight;
          ++pending;
        }
      }
      // Phase 2 (scatter): table-major over the block's unapplied plans,
      // prefetching the counter line a few elements ahead.
      for (uint64_t table = 0; table < tables; ++table) {
        int64_t* row = &counters_[table * num_buckets_];
        for (size_t i = 0; i < pending; ++i) {
          if (i + kPrefetchDistance < pending) {
            __builtin_prefetch(
                &row[Bucket(
                    plan_scratch[(i + kPrefetchDistance) * tables + table])],
                1);
          }
          const uint32_t word = plan_scratch[i * tables + table];
          row[Bucket(word)] += Signed(word, weight_scratch[i]);
        }
      }
    }
  }

 private:
  static uint64_t Bucket(uint32_t word) {
    if constexpr (kSigned) return hashing::PlanBucket(word);
    return word;
  }

  static int64_t Signed(uint32_t word, int64_t weight) {
    if constexpr (kSigned) return hashing::PlanSign(word) * weight;
    return weight;
  }

  /// Every table's plan word for `value` — the full polynomial path.
  void FillPlan(uint64_t value, uint32_t* plan) const {
    for (size_t table = 0; table < buckets_.size(); ++table) {
      if constexpr (kSigned) {
        plan[table] = hashing::PackBucketSign(buckets_[table](value),
                                              signs_[table](value));
      } else {
        plan[table] = static_cast<uint32_t>(buckets_[table](value));
      }
    }
  }

  /// FillPlan over a block: plans for values[0..n) into `plans`
  /// (element-major, n × tables words), evaluating each table's polynomials
  /// with the hashing/simd_hash.h block kernels at `level`. Word-for-word
  /// identical to calling FillPlan per value.
  void FillPlansBlock(const uint64_t* values, size_t n, uint32_t* plans,
                      hashing::SimdLevel level) const {
    // Per-table scratch for the raw field residues; thread_local for the
    // same reasons as the batch scratch.
    static thread_local std::vector<uint64_t> bucket_scratch;
    static thread_local std::vector<uint64_t> sign_scratch;
    bucket_scratch.resize(n);
    if constexpr (kSigned) sign_scratch.resize(n);
    const size_t tables = buckets_.size();
    for (size_t table = 0; table < tables; ++table) {
      const hashing::BucketHash& bucket = buckets_[table];
      hashing::PolyEvalBlock(bucket.poly().coefficients(), values, n,
                             bucket_scratch.data(), level);
      if constexpr (kSigned) {
        hashing::PolyEvalBlock(signs_[table].poly().coefficients(), values, n,
                               sign_scratch.data(), level);
        // PackBucketSign by hand: the packed sign bit IS the residue's low
        // bit (ξ(v) = 1 - 2·(h(v) & 1)), so no ±1 materialization is needed.
        for (size_t i = 0; i < n; ++i) {
          plans[i * tables + table] =
              static_cast<uint32_t>((bucket.ModReduce(bucket_scratch[i]) << 1) |
                                    (sign_scratch[i] & 1));
        }
      } else {
        for (size_t i = 0; i < n; ++i) {
          plans[i * tables + table] =
              static_cast<uint32_t>(bucket.ModReduce(bucket_scratch[i]));
        }
      }
    }
  }

  /// Adds `weight` (sign-adjusted when kSigned) at each table's planned
  /// bucket.
  void ApplyPlan(const uint32_t* plan, int64_t weight) const {
    int64_t* row = counters_.data();
    for (size_t table = 0; table < buckets_.size(); ++table) {
      row[Bucket(plan[table])] += Signed(plan[table], weight);
      row += num_buckets_;
    }
  }

  std::span<const hashing::BucketHash> buckets_;
  std::span<const hashing::SignHash> signs_;
  std::span<int64_t> counters_;
  uint64_t num_buckets_;
  hashing::HashPlanCache* cache_;
};

}  // namespace internal
}  // namespace sketch
}  // namespace skimjoin

#endif  // SKIMJOIN_SKETCH_PLAN_KERNEL_H_
