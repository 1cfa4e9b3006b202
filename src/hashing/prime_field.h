// Arithmetic in GF(p) for the Mersenne prime p = 2^61 - 1.
//
// Carter–Wegman k-wise independent hash families evaluate degree-(k-1)
// polynomials over a prime field; using a Mersenne prime makes the modular
// reduction branch-free (shift + add) which keeps per-element sketch update
// cost low — the property the paper's hash-sketch design is built around.

#ifndef SKIMJOIN_HASHING_PRIME_FIELD_H_
#define SKIMJOIN_HASHING_PRIME_FIELD_H_

#include <cstdint>

namespace skimjoin {
namespace hashing {

/// The field modulus 2^61 - 1. Domain values hashed by the library must be
/// strictly smaller than this (the stream model uses 64-bit values folded
/// into the field by the hash classes).
inline constexpr uint64_t kMersennePrime61 = (uint64_t{1} << 61) - 1;

/// Reduces a value < 2^122 modulo 2^61 - 1.
constexpr uint64_t ReduceMersenne61(__uint128_t x) {
  // x = hi * 2^61 + lo  =>  x ≡ hi + lo (mod 2^61 - 1).
  uint64_t lo = static_cast<uint64_t>(x) & kMersennePrime61;
  uint64_t hi = static_cast<uint64_t>(x >> 61);
  uint64_t sum = lo + hi;
  if (sum >= kMersennePrime61) sum -= kMersennePrime61;
  return sum;
}

/// (a * b) mod (2^61 - 1). Pre-condition: a, b < 2^61 - 1.
constexpr uint64_t MulMod61(uint64_t a, uint64_t b) {
  return ReduceMersenne61(static_cast<__uint128_t>(a) * b);
}

/// (a + b) mod (2^61 - 1). Pre-condition: a, b < 2^61 - 1.
constexpr uint64_t AddMod61(uint64_t a, uint64_t b) {
  uint64_t sum = a + b;  // < 2^62, no overflow
  if (sum >= kMersennePrime61) sum -= kMersennePrime61;
  return sum;
}

/// (a - b) mod (2^61 - 1). Pre-condition: a, b < 2^61 - 1.
constexpr uint64_t SubMod61(uint64_t a, uint64_t b) {
  return a >= b ? a - b : a + kMersennePrime61 - b;
}

/// Folds an arbitrary 64-bit value into the field [0, 2^61 - 1).
constexpr uint64_t FoldToField61(uint64_t x) {
  uint64_t r = (x & kMersennePrime61) + (x >> 61);
  if (r >= kMersennePrime61) r -= kMersennePrime61;
  return r;
}

}  // namespace hashing
}  // namespace skimjoin

#endif  // SKIMJOIN_HASHING_PRIME_FIELD_H_
