// The kFast update kernel of the TableSketch core under HashSketch and
// CountMinSketch (DESIGN.md §10). Private to sketch/table_sketch.cc and
// the kernel differential test.

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
#include "sketch/table_sketch.h"
#include "stream/stream_element.h"

namespace skimjoin {
namespace sketch {
namespace internal {

/// The kFast kernel over one table-of-buckets sketch: a view of its hash
/// families, counters and plan state, cheap enough to build per call. A
/// plan word holds one table's bucket; HashSketch (kSigned) packs its ±1
/// sign into bit 0 (hashing::PackBucketSign), Count-Min stores the bare
/// bucket.
template <bool kSigned>
class PlanKernel {
 public:
  /// `signs` is empty unless kSigned. `counters` is row-major by table,
  /// num_buckets per row. `state` was built from these families (or
  /// equal ones).
  PlanKernel(std::span<const hashing::BucketHash> buckets,
             std::span<const hashing::SignHash> signs,
             std::span<int64_t> counters, uint64_t num_buckets,
             PlanState* state)
      : buckets_(buckets),
        signs_(signs),
        counters_(counters),
        num_buckets_(num_buckets),
        state_(state) {}

  /// One element: a cache hit costs one probe and `s` counter adds.
  void Update(uint64_t value, int64_t weight) const {
    bool hit = false;
    uint32_t* plan = state_->cache.Probe(value, &hit);
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
          const uint32_t* plan = state_->cache.Lookup(element.value);
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
                      state_->cache.Insert(value_scratch[i]));
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
          uint32_t* plan = state_->cache.Probe(element.value, &hit);
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

  /// Every table's plan word for `value`: one hashing::PolyEvalTables call
  /// evaluates every table's bucket and sign polynomial with the lanes
  /// across tables, at the level the plan state was built with (scalar
  /// only without AVX2/AVX-512 or under SKIMJOIN_FORCE_SCALAR=1). Word for
  /// word the plan PackBucketSign(h_j(value), ξ_j(value)) of every table j.
  void FillPlan(uint64_t value, uint32_t* plan) const {
    uint64_t* residues = state_->residues.data();
    hashing::PolyEvalTables(state_->lanes, value, residues, state_->level);
    const uint64_t* sign_residues = residues + state_->lanes.stride();
    for (size_t table = 0; table < buckets_.size(); ++table) {
      plan[table] = PlanWord(buckets_[table], residues[table],
                             kSigned ? sign_residues[table] : 0);
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

  /// One table's plan word from its bucket and sign field residues:
  /// PackBucketSign by hand, since the packed sign bit IS the sign
  /// residue's low bit (ξ(v) = 1 - 2·(h(v) & 1)), so no ±1 materialization
  /// is needed. The sign residue is unused unless kSigned.
  static uint32_t PlanWord(const hashing::BucketHash& bucket,
                           uint64_t bucket_residue, uint64_t sign_residue) {
    const uint64_t index = bucket.ModReduce(bucket_residue);
    if constexpr (kSigned) {
      return static_cast<uint32_t>((index << 1) | (sign_residue & 1));
    }
    return static_cast<uint32_t>(index);
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
      }
      for (size_t i = 0; i < n; ++i) {
        plans[i * tables + table] = PlanWord(
            bucket, bucket_scratch[i], kSigned ? sign_scratch[i] : 0);
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
  PlanState* state_;
};

}  // namespace internal
}  // namespace sketch
}  // namespace skimjoin

#endif  // SKIMJOIN_SKETCH_PLAN_KERNEL_H_
