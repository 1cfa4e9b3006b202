// Update-kernel selection for the sketches (DESIGN.md §10).
//
// Every sketch runs one of two kernels:
//   * kFast — the production path: fastmod bucket reduction, a
//     direct-mapped plan cache of kPlanCacheSlots slots, blocked
//     hash→scatter batches of kBatchBlockSize elements, and SIMD hash lanes
//     chosen by CPUID (SKIMJOIN_FORCE_SCALAR=1 pins them to scalar, the
//     only SIMD A/B switch).
//   * kReference — the plain scalar path. tests/kernel_differential_test.cc
//     proves kFast bit-identical to it, and the bench's reference row
//     measures it; that is all it is for.

#ifndef SKIMJOIN_SKETCH_KERNEL_H_
#define SKIMJOIN_SKETCH_KERNEL_H_

#include <cstddef>
#include <cstdint>

namespace skimjoin {
namespace sketch {

enum class Kernel : uint8_t { kFast, kReference };

/// Slots in each sketch's plan cache (a power of two). 16384 slots is tags
/// (128 KiB) + plans (16384 × tables × 4 B ≈ 448 KiB at s=7) — large enough
/// that a z=1.0 Zipf hot set over a 2^18 domain hits ~2/3 of probes, small
/// enough to stay cache-resident next to the counter arrays. Dyadic levels
/// clamp it to their own prefix domain (see DyadicSkimmer).
inline constexpr uint64_t kPlanCacheSlots = 16384;

/// Elements hashed per block before the scatter phase; 256 keeps the
/// scratch plan array (256 × tables × 4 B ≈ 7 KiB at s=7) inside L1.
inline constexpr size_t kBatchBlockSize = 256;

}  // namespace sketch
}  // namespace skimjoin

#endif  // SKIMJOIN_SKETCH_KERNEL_H_
