// The block point estimator of HashSketch: the estimate of every value in a
// range, one block of consecutive values at a time — the read side of
// SKIMDENSE's domain scan (core/skim.cc, paper Fig. 3).
//
// Per block, each step over the whole block:
//   1. hash: each table's hashing::HashChain tabulates its bucket and sign
//      polynomials over the block's values by finite differences, into plan
//      words (bucket << 1 | sign bit) — no multiplies, no plan cache;
//   2. gather and sign: each value's counter in each table, negated where
//      ξ_j = -1;
//   3. median over the tables, by MedianInt64's rule: kSortingNetwork7 for
//      seven tables, MedianInt64 itself for any other count.
// The chains run in SIMD lanes at every table count, and with seven tables
// so do steps 2 and 3. Levels dispatch through hashing::DetectSimdLevel(),
// and SKIMJOIN_FORCE_SCALAR=1 pins them to scalar. Each estimate is
// bit-identical to HashSketch::PointEstimate of its value over the counters
// as they stand when the block is estimated.
//
// The scan keeps the current block's plans. After a skim subtracts a dense
// value mid-block, Reestimate re-reads the counters for the rest of the
// block without hashing it again — which keeps Fig. 3's sequential
// semantics: every value is tested against the counters left by every
// subtraction before it.

#ifndef SKIMJOIN_SKETCH_POINT_SCAN_H_
#define SKIMJOIN_SKETCH_POINT_SCAN_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "hashing/hash_chain.h"
#include "hashing/simd_hash.h"
#include "sketch/hash_sketch.h"

namespace skimjoin {
namespace sketch {

/// Point estimates of the values [lo, hi) of one HashSketch, block by block.
class PointScan {
 public:
  /// Values per block, a multiple of hashing::HashChain::kLanes. At s = 7 a
  /// block's plans and estimates (18 KiB) stay in L1, and a re-estimate
  /// after a dense value costs at most one block.
  static constexpr size_t kBlockSize = 512;

  /// Scans [lo, hi) of `sketch`, which must outlive the scan. Counters are
  /// read by NextBlock and Reestimate, so updates made between those calls
  /// show in the estimates that follow. `level` picks the kernels; tests
  /// pass each level the machine supports. Pre-condition: lo <= hi.
  PointScan(const HashSketch& sketch, uint64_t lo, uint64_t hi,
            hashing::SimdLevel level = hashing::DetectSimdLevel());

  /// Moves to the next block of up to kBlockSize values and estimates it;
  /// false once the range is done.
  bool NextBlock();

  /// The current block's first value.
  uint64_t block_lo() const { return block_lo_; }

  /// The current block's estimates: estimates()[i] is value block_lo() + i.
  std::span<const int64_t> estimates() const {
    return std::span<const int64_t>(estimates_).first(block_size_);
  }

  /// Re-reads the counters for the current block's values from index
  /// `from` on, after the sketch changed mid-block.
  void Reestimate(size_t from);

 private:
  const HashSketch& sketch_;
  uint64_t next_lo_;
  uint64_t hi_;
  hashing::SimdLevel level_;
  uint64_t block_lo_ = 0;
  size_t block_size_ = 0;
  // One chain per table. Empty for a bucket count past a plan word
  // (HashChain::kMaxBuckets, 2^31 buckets, 16 GiB per table): such a sketch
  // is estimated value by value with PointEstimate.
  std::vector<hashing::HashChain> chains_;
  std::vector<uint32_t> plans_;     // table-major, kBlockSize per table
  std::vector<int64_t> estimates_;  // kBlockSize
  std::vector<int64_t> column_;     // one value's per-table estimates
};

}  // namespace sketch
}  // namespace skimjoin

#endif  // SKIMJOIN_SKETCH_POINT_SCAN_H_
