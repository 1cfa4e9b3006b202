// Carter–Wegman k-wise independent hash families.
//
// A degree-(k-1) polynomial with uniformly random coefficients over
// GF(2^61 - 1) is a k-wise independent function from the field to itself
// [Wegman–Carter '81]. The sketch structures need:
//   * pairwise (k=2) independence for the bucket-selection hashes h_j of the
//     hash sketch (Section 4.1 of the paper), and
//   * four-wise (k=4) independence for the ±1 families ξ (Section 2.2),
//     which is what bounds the variance of the tug-of-war estimators
//     [Alon–Matias–Szegedy '96].

#ifndef SKIMJOIN_HASHING_KWISE_HASH_H_
#define SKIMJOIN_HASHING_KWISE_HASH_H_

#include <cstdint>
#include <vector>

#include "hashing/fastmod.h"
#include "hashing/prime_field.h"
#include "util/random.h"

namespace skimjoin {
namespace hashing {

/// A single member of a k-wise independent family, drawn with `rng`.
/// Evaluation is Horner's rule: k-1 multiply-adds per call.
class KWiseHash {
 public:
  /// Draws random coefficients for a degree-(independence-1) polynomial.
  /// Pre-condition: independence >= 1. The leading coefficient is drawn from
  /// [1, p) so the polynomial has exact degree (this does not affect the
  /// independence guarantee and avoids degenerate constant hashes).
  KWiseHash(int independence, Rng* rng);

  /// Hash of `x` in [0, 2^61 - 1). Arbitrary 64-bit inputs are folded into
  /// the field first.
  uint64_t operator()(uint64_t x) const;

  int independence() const { return static_cast<int>(coefficients_.size()); }

  /// The polynomial coefficients, constant term first. Exposed for
  /// serialization in tests.
  const std::vector<uint64_t>& coefficients() const { return coefficients_; }

  /// Total footprint in bytes: the object itself plus the heap-allocated
  /// coefficient vector. Feeds the per-synopsis memory gauges.
  uint64_t MemoryBytes() const {
    return sizeof(*this) + coefficients_.capacity() * sizeof(uint64_t);
  }

 private:
  std::vector<uint64_t> coefficients_;
};

/// A member of a pairwise-independent family mapped onto the bucket range
/// [0, num_buckets): h(x) = poly(x) mod num_buckets. The modular projection
/// of a pairwise family stays (approximately) pairwise uniform because the
/// field size 2^61 - 1 vastly exceeds any bucket count used in practice.
///
/// The reduction runs through a precomputed 128-bit reciprocal (Lemire
/// fastmod) by default, which is bit-identical to `%` for every dividend;
/// set_use_fastmod(false) restores the hardware divide of the reference
/// kernel.
class BucketHash {
 public:
  /// Pre-condition: num_buckets >= 1.
  BucketHash(uint64_t num_buckets, Rng* rng);

  /// Bucket of `x`, in [0, num_buckets).
  uint64_t operator()(uint64_t x) const {
    const uint64_t h = hash_(x);
    return use_fastmod_ ? divisor_.Mod(h) : h % num_buckets_;
  }

  uint64_t num_buckets() const { return num_buckets_; }

  /// The wrapped pairwise polynomial. Exposed so the SIMD block kernels
  /// (hashing/simd_hash.h) can evaluate it over whole element blocks.
  const KWiseHash& poly() const { return hash_; }

  /// Projects a field element (a raw poly() result) into [0, num_buckets),
  /// honoring set_use_fastmod — the reduction half of
  /// operator(), for callers that batch the polynomial separately.
  uint64_t ModReduce(uint64_t h) const {
    return use_fastmod_ ? divisor_.Mod(h) : h % num_buckets_;
  }

  /// Off only under sketch::Kernel::kReference. Either setting produces
  /// identical buckets; this only selects the instruction sequence.
  void set_use_fastmod(bool on) { use_fastmod_ = on; }
  bool use_fastmod() const { return use_fastmod_; }

  /// Total footprint in bytes, including the wrapped polynomial's heap.
  uint64_t MemoryBytes() const {
    return sizeof(num_buckets_) + sizeof(divisor_) + sizeof(use_fastmod_) +
           hash_.MemoryBytes();
  }

 private:
  KWiseHash hash_;
  uint64_t num_buckets_;
  FastDivisor divisor_;
  bool use_fastmod_ = true;
};

}  // namespace hashing
}  // namespace skimjoin

#endif  // SKIMJOIN_HASHING_KWISE_HASH_H_
