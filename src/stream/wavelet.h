// One-pass Haar wavelet synopses (Gilbert–Kotidis–Muthukrishnan–Strauss,
// VLDB '01 — citation [11] of the paper): maintain the Haar decomposition
// of the frequency vector under point updates, keep the B largest
// coefficients, and reconstruct approximate point values and range sums.
//
// A point update (v, w) touches exactly log2(m) + 1 coefficients (the
// average plus one detail per level along v's root-to-leaf path), so
// maintenance is logarithmic like every other synopsis here, and the
// structure is linear: deletions are exact negations. Coefficients are
// stored sparsely (only the touched ones), so space is bounded by the
// stream's path footprint until CompressTo(B) thresholds it down to a
// B-term synopsis.

#ifndef SKIMJOIN_STREAM_WAVELET_H_
#define SKIMJOIN_STREAM_WAVELET_H_

#include <cstdint>
#include <istream>
#include <map>
#include <ostream>
#include <utility>
#include <vector>

#include "util/status.h"

namespace skimjoin {
namespace stream {

/// Sparse Haar wavelet synopsis of a frequency vector over [0, m), m a
/// power of two.
class WaveletSynopsis {
 public:
  /// INVALID_ARGUMENT unless domain_size is a power of two >= 2.
  static StatusOr<WaveletSynopsis> Create(uint64_t domain_size);

  /// Applies one point update: O(log m) coefficient adjustments.
  /// Pre-condition: value < domain_size.
  void Update(uint64_t value, int64_t weight);

  /// Reconstructed frequency of `value` from the retained coefficients.
  /// Exact while no compression has dropped coefficients on v's path.
  double PointEstimate(uint64_t value) const;

  /// Reconstructed sum of frequencies over [lo, hi] (inclusive) — the
  /// classic wavelet range-aggregate. Exact before compression.
  /// INVALID_ARGUMENT / OUT_OF_RANGE on bad ranges.
  StatusOr<double> RangeSum(uint64_t lo, uint64_t hi) const;

  /// Keeps only the `budget` largest-magnitude NORMALIZED coefficients
  /// (Haar normalization c/sqrt(support) — the choice that minimizes the L2
  /// reconstruction error for a given budget) and drops the rest.
  void CompressTo(uint64_t budget);

  /// Retained coefficients, as (index, raw value) pairs, largest
  /// normalized magnitude first. Index 0 is the overall average
  /// coefficient; index i >= 1 is the standard Haar detail numbering.
  std::vector<std::pair<uint64_t, double>> TopCoefficients(
      uint64_t budget) const;

  /// Non-zero coefficients currently stored.
  uint64_t CoefficientCount() const { return coefficients_.size(); }

  uint64_t domain_size() const { return domain_size_; }

  /// Whether `other` spans the same domain (what a loaded record must
  /// share with the synopsis it replaces).
  bool CompatibleWith(const WaveletSynopsis& other) const {
    return domain_size_ == other.domain_size_;
  }

  /// Total footprint in bytes: object plus the sparse coefficient map
  /// (each tree node costed at its payload plus pointer overhead). Feeds
  /// the per-synopsis memory gauges.
  uint64_t MemoryBytes() const;

  /// Writes a self-describing text record (domain size, coefficients).
  Status SerializeTo(std::ostream& out) const;

  /// Reads a record written by SerializeTo. INVALID_ARGUMENT on a malformed
  /// or truncated record.
  static StatusOr<WaveletSynopsis> DeserializeFrom(std::istream& in);

 private:
  explicit WaveletSynopsis(uint64_t domain_size);

  /// Normalization factor sqrt(support size) for coefficient `index`.
  double NormalizationOf(uint64_t index) const;

  /// Adds `delta` to coefficient `index`, erasing it when it reaches zero.
  void Adjust(uint64_t index, double delta);

  double Coefficient(uint64_t index) const {
    const auto it = coefficients_.find(index);
    return it == coefficients_.end() ? 0.0 : it->second;
  }

  uint64_t domain_size_;
  uint64_t levels_;  // log2(domain_size)
  // Sparse coefficient store: index 0 = average; detail coefficient for
  // node j (1-based heap numbering) at key j. Ordered map so RangeSum
  // accumulates coefficients in a deterministic order — floating-point
  // addition does not commute across orders, and checkpoint restore
  // promises bit-identical answers.
  std::map<uint64_t, double> coefficients_;
};

}  // namespace stream
}  // namespace skimjoin

#endif  // SKIMJOIN_STREAM_WAVELET_H_
