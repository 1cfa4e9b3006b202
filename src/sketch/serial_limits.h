// Process-wide guard rails for synopsis deserialization.
//
// A serialized sketch record is untrusted input: a hostile or corrupt
// header can claim arbitrarily large dimensions and trick the reader into
// a multi-GB counter allocation before a single counter is parsed. Every
// DeserializeFrom implementation therefore validates its header dimensions
// through CheckDeserializeDims before allocating: the product must be
// non-zero, must not overflow, and must not exceed a configurable cap.
//
// The cap is process-wide (servers deserialize synopses of many shapes on
// one codepath) and defaults to 1 << 26 counter-sized words — 512 MiB, far
// beyond any configuration the estimators use, yet small enough that a
// rejected record never destabilizes the process. A record that also
// builds hash families from its header (a hash sketch's per-table
// families, an AGMS sketch's per-cell ones) charges each family
// kWordsPerHashFamily words through CheckDeserializeFootprint, so the cap
// bounds the bytes a header can ask for, not only its counters.
//
// The counter-block records (hash sketch, Count-Min, AGMS, FM) end the same
// way — the counters on one line, then an `end` sentinel line — and write
// and read that tail through WriteCounterBlock / ReadCounterBlock.

#ifndef SKIMJOIN_SKETCH_SERIAL_LIMITS_H_
#define SKIMJOIN_SKETCH_SERIAL_LIMITS_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>

#include "util/status.h"

namespace skimjoin {
namespace sketch {

/// Default value of the deserialization counter cap.
inline constexpr uint64_t kDefaultMaxDeserializeCounters = uint64_t{1} << 26;

/// Current cap on counters a single deserialized record may allocate.
uint64_t MaxDeserializeCounters();

/// Overrides the cap (e.g. tightened by a server that only ever ships
/// small synopses, or loosened for an offline bulk loader). Passing 0
/// restores the default.
void SetMaxDeserializeCounters(uint64_t cap);

/// Validates a counter-block shape read from an untrusted header:
/// both dimensions >= 1, rows * cols free of uint64 overflow, and the
/// product within MaxDeserializeCounters(). `what` names the record kind
/// for the error message. Returns INVALID_ARGUMENT on violation.
Status CheckDeserializeDims(uint64_t rows, uint64_t cols, const char* what);

/// Counter-sized words charged for each hash family a record builds: an
/// upper bound on one BucketHash or SignHash object, its heap coefficients
/// and their allocator overhead (at most 128 bytes).
inline constexpr uint64_t kWordsPerHashFamily = 16;

/// CheckDeserializeDims for a record that builds `families_per_row` hash
/// families beside each row of `cols` counters: rows × cols counters must
/// pass CheckDeserializeDims, and rows × (cols + families_per_row ×
/// kWordsPerHashFamily) words must fit the same cap. INVALID_ARGUMENT
/// naming `what` otherwise.
Status CheckDeserializeFootprint(uint64_t rows, uint64_t cols,
                                 uint64_t families_per_row, const char* what);

/// Writes `counters` space-separated on one line, then the `end` sentinel
/// line that lets a reader tell a complete block from one truncated
/// exactly at a counter boundary.
void WriteCounterBlock(std::ostream& out, std::span<const int64_t> counters);

/// Reads the block WriteCounterBlock wrote into `counters`, which the
/// caller sized from a header it validated with CheckDeserializeDims.
/// INVALID_ARGUMENT naming `what` on a short block or a missing sentinel.
Status ReadCounterBlock(std::istream& in, std::span<int64_t> counters,
                        const char* what);

}  // namespace sketch
}  // namespace skimjoin

#endif  // SKIMJOIN_SKETCH_SERIAL_LIMITS_H_
