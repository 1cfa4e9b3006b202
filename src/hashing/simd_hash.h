// SIMD block evaluation of the Carter–Wegman polynomials over
// GF(2^61 - 1) — the vector half of the update fast path (DESIGN.md §13).
//
// The hash→bucket→sign pipeline of every sketch update spends its cycles
// in Horner's rule over the Mersenne field (prime_field.h). A single lane
// needs a 64×64→128 multiply, which AVX2/AVX-512 lack — but because every
// Horner input is a canonical residue (< 2^61), the product decomposes into
// four 32×32→64 partial products (`vpmuludq`) whose Mersenne folds all fit
// 64-bit lanes:
//
//   a = a0 + a1·2^32   (a < 2^61 ⇒ a1 < 2^29), likewise b
//   a·b = p00 + (p01 + p10)·2^32 + p11·2^64
//   with 2^61 ≡ 1 (mod p):   2^64 ≡ 8,  and for mid = p01 + p10 (< 2^62)
//   mid·2^32 ≡ (mid mod 2^29)·2^32 + (mid >> 29)      [since 2^29·2^32 = 2^61]
//   s = (p00 & p) + (p00 >> 61) + (mid mod 2^29)·2^32 + (mid >> 29) + 8·p11
//     < 2^63, and the canonical residue is ((s & p) + (s >> 61)) − p·[≥ p].
//
// Every intermediate stays canonical at every Horner step, so each lane is
// BIT-IDENTICAL to the scalar MulMod61/AddMod61 sequence — the property the
// kernel differential tests hold the whole switch matrix to.
//
// Dispatch is by runtime CPUID (`__builtin_cpu_supports`), overridable with
// the environment variable SKIMJOIN_FORCE_SCALAR=1 so the always-compiled
// scalar fallback stays exercised on AVX machines (CI runs the differential
// suite both ways). The selected level is exported as the engine's
// `engine.simd_level` gauge and as a bench-context field.

#ifndef SKIMJOIN_HASHING_SIMD_HASH_H_
#define SKIMJOIN_HASHING_SIMD_HASH_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

namespace skimjoin {
namespace hashing {

/// The instruction set the polynomial block kernels dispatch to. Values are
/// ordered by width so the level doubles as the exported gauge value.
enum class SimdLevel : int {
  kScalar = 0,  // portable fallback, always compiled
  kAvx2 = 1,    // 4 × 64-bit lanes
  kAvx512 = 2,  // 8 × 64-bit lanes (avx512f)
};

/// "scalar" / "avx2" / "avx512".
const char* SimdLevelName(SimdLevel level);

/// The widest level this CPU supports, probed once (thread-safe) via CPUID.
/// SKIMJOIN_FORCE_SCALAR=1 in the environment pins the answer to kScalar —
/// the hook CI uses to keep the fallback path tested on wide machines.
SimdLevel DetectSimdLevel();

/// Evaluates the degree-(k-1) polynomial with `coefficients` (constant term
/// first, exactly as KWiseHash stores them) at values[0..n), folding each
/// 64-bit input into the field first. out[i] is bit-identical to the scalar
/// KWiseHash evaluation of values[i] for every level (canonical residues at
/// every step). Tails shorter than the lane width run the scalar loop.
/// Pre-condition: coefficients.size() >= 1; out has room for n results.
void PolyEvalBlock(std::span<const uint64_t> coefficients,
                   const uint64_t* values, size_t n, uint64_t* out,
                   SimdLevel level);

/// A table-per-lane copy of a sketch's polynomial coefficients, the layout
/// PolyEvalTables reads: one or more families (a sketch's bucket hashes,
/// its sign hashes), each holding one polynomial per table. Within a
/// family, row c holds coefficient c (constant term first) of every
/// table, zero-padded to stride() lanes.
class PolyLanes {
 public:
  /// `tables` >= 1 polynomials in each family; family f's polynomials
  /// have terms[f] >= 1 coefficients.
  PolyLanes(size_t tables, std::span<const size_t> terms);

  /// Copies table `table`'s polynomial of family `family`: exactly
  /// terms[family] coefficients, constant term first.
  void Set(size_t family, size_t table,
           std::span<const uint64_t> coefficients);

  size_t families() const { return terms_.size(); }

  /// Lanes per row: the table count rounded up to a multiple of 8 (one
  /// AVX-512 vector, two AVX2 vectors).
  size_t stride() const { return stride_; }

  /// Heap and object bytes; counted with the plan cache it serves.
  uint64_t MemoryBytes() const;

 private:
  friend void PolyEvalTables(const PolyLanes& lanes, uint64_t x,
                             uint64_t* out, SimdLevel level);

  size_t tables_ = 0;
  size_t stride_ = 0;
  std::vector<size_t> terms_;    // per family
  std::vector<uint64_t> rows_;   // family-major, then coefficient-major
};

/// Evaluates every table's polynomial of every family at one value x, with
/// vector lanes running across tables: out[f * stride() + t] is
/// bit-identical to the scalar KWiseHash evaluation of family f's table-t
/// polynomial at x (the lane argument at the top of this file). AVX-512
/// evaluates eight tables per vector, AVX2 four; kScalar runs the Horner
/// loop table by table. `out` has room for families() × stride() words;
/// the padded lanes hold no result.
void PolyEvalTables(const PolyLanes& lanes, uint64_t x, uint64_t* out,
                    SimdLevel level);

}  // namespace hashing
}  // namespace skimjoin

#endif  // SKIMJOIN_HASHING_SIMD_HASH_H_
