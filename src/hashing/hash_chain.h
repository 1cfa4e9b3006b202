// Range evaluation of one hash-sketch table's hashes by finite-difference
// chains — the hashing half of the block point estimator behind SKIMDENSE's
// domain scan (sketch/point_scan.h).
//
// A polynomial of degree d tabulated at equally spaced points needs no
// multiplies: its d-th difference is constant, so each step adds every
// difference into the one below it (Knuth, TAOCP vol. 2 §4.6.4). Over
// GF(2^61 - 1) those adds are AddMod61, and the chain is exact: each value
// it yields equals Horner's rule at that point, bit for bit. The bucket
// polynomial a0 + a1·x is linear (one add per step); the sign polynomial is
// cubic (three adds per step, its third difference constant).
//
// Inputs are folded into the field (FoldToField61(x) = x mod p), so
// consecutive 64-bit values are consecutive field points — also across
// p = 2^61 - 1, where the fold wraps to 0. A chain therefore never has to
// stop at the field bound; only 64-bit wraparound would break it.
//
// Eight interleaved lanes: lane l tabulates start + l + 8k at step k, so the
// differences are taken at stride 8 and one step yields eight consecutive
// values — one AVX-512 vector, two AVX2 vectors or eight scalar lanes. The
// bucket h(x) mod b is tracked beside h(x): a step adds (8·a1 mod p) mod b,
// and when the field sum wrapped past p it adds b − (p mod b), so no step
// divides. Like PolyEvalBlock, the level only picks the instructions; every
// level yields the same words.

#ifndef SKIMJOIN_HASHING_HASH_CHAIN_H_
#define SKIMJOIN_HASHING_HASH_CHAIN_H_

#include <cstddef>
#include <cstdint>

#include "hashing/kwise_hash.h"
#include "hashing/sign_hash.h"
#include "hashing/simd_hash.h"

namespace skimjoin {
namespace hashing {

/// The (bucket, sign) plan words of one table over consecutive values.
class HashChain {
 public:
  static constexpr size_t kLanes = 8;

  /// Largest bucket count a plan word holds: the bucket sits above the sign
  /// bit of a 32-bit word, as in hashing::PackBucketSign.
  static constexpr uint64_t kMaxBuckets = uint64_t{1} << 31;

  /// Starts the chain at value `start`. The words it yields are exact for
  /// every value up to 2^64 - 1; past that the 64-bit values would wrap to
  /// 0 and the words mean nothing. Pre-condition: bucket.num_buckets() <=
  /// kMaxBuckets.
  HashChain(const BucketHash& bucket, const SignHash& sign, uint64_t start);

  /// Writes the plan words of the next `n` values — (h(v) mod b) << 1 | the
  /// sign polynomial's low bit, PackBucketSign's layout — to plans[0..n) and
  /// moves past them. Works in whole steps of kLanes values: `plans` needs
  /// room for n rounded up to kLanes, and after a call with a ragged n the
  /// chain stands past the rounded count.
  void Next(size_t n, uint32_t* plans, SimdLevel level);

  /// Lane state and step constants. Public only for the level kernels in
  /// hash_chain.cc.
  struct State {
    uint64_t sign[kLanes];     // sign polynomial at each lane's next value
    uint64_t sign_d1[kLanes];  // its first stride-8 difference there
    uint64_t sign_d2[kLanes];  // its second stride-8 difference there
    uint64_t field[kLanes];    // bucket polynomial at each lane's next value
    uint64_t bucket[kLanes];   // field mod num_buckets
    uint64_t sign_d3;          // the constant third difference
    uint64_t field_step;       // 8·a1 mod p
    uint64_t bucket_step;      // field_step mod num_buckets
    uint64_t wrap_step;        // (num_buckets − p mod num_buckets) mod b
    uint64_t num_buckets;
  };

 private:
  State state_;
};

}  // namespace hashing
}  // namespace skimjoin

#endif  // SKIMJOIN_HASHING_HASH_CHAIN_H_
