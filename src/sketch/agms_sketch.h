// Basic AGMS ("tug-of-war") sketches — the paper's baseline.
//
// The synopsis is an s1 × s2 array of atomic sketches (§2.2): atomic sketch
// (i, j) is the random linear projection X_ij = Σ_v f_v · ξ_ij(v) with an
// independent four-wise ±1 family ξ_ij per cell. Estimation boosts accuracy
// and confidence by taking the median over j of the mean over i of the
// products X^F_ij · X^G_ij (Fig. 2: ESTJOINSIZE; ESTSJSIZE is the F = G
// case).
//
// Per-element maintenance touches ALL s1·s2 counters — the drawback the
// skimmed-sketch structure removes (compare sketch/hash_sketch.h, which
// touches one counter per table).

#ifndef SKIMJOIN_SKETCH_AGMS_SKETCH_H_
#define SKIMJOIN_SKETCH_AGMS_SKETCH_H_

#include <cstdint>
#include <istream>
#include <ostream>
#include <span>
#include <vector>

#include "hashing/sign_hash.h"
#include "sketch/kernel.h"
#include "stream/frequency_vector.h"
#include "stream/stream_element.h"
#include "util/estimate_report.h"
#include "util/status.h"

namespace skimjoin {
namespace sketch {

/// Shape of an AGMS synopsis.
struct AgmsConfig {
  /// s1: number of iid atomic sketches averaged per estimate (controls the
  /// relative-error parameter ε).
  uint64_t num_means = 32;
  /// s2: number of independent averages medianed together (controls the
  /// confidence parameter δ). Odd values make the median unambiguous.
  uint64_t num_medians = 5;

  /// Total counters (the paper's "space in words" for this synopsis).
  uint64_t TotalCounters() const { return num_means * num_medians; }
};

/// One AGMS synopsis for one stream. Copyable (copies share no state).
class AgmsSketch {
 public:
  /// Validates `config` (both dimensions >= 1, cells and their families
  /// within MaxDeserializeCounters()) and draws the ξ families
  /// deterministically from `seed`. Two sketches created with equal config
  /// and seed are compatible for join estimation.
  static StatusOr<AgmsSketch> Create(const AgmsConfig& config, uint64_t seed);

  /// Applies one stream arrival: O(s1 · s2) counter updates.
  void Update(uint64_t value, int64_t weight);

  void Update(const stream::StreamElement& element) {
    Update(element.value, element.weight);
  }

  /// Applies a batch of arrivals; counter-for-counter identical to scalar
  /// Update calls. The kFast kernel walks the batch in element blocks of
  /// kBatchBlockSize (cells inner, per-cell partial sum per block, ξ
  /// evaluated in SIMD lanes) so the element block stays in L1 across all
  /// s1·s2 ξ evaluations; kReference sweeps the whole batch cell-major.
  /// Identical final counters either way (integer partial sums regroup
  /// associatively).
  void UpdateBatch(std::span<const stream::StreamElement> elements);

  /// Selects the batch kernel (DESIGN.md §10). AGMS has no bucket hashes
  /// or plan cache; only the batch blocking and SIMD lanes differ.
  void SetKernel(Kernel kernel) { kernel_ = kernel; }

  Kernel kernel() const { return kernel_; }

  /// Zeroes every counter (families untouched); see HashSketch::Reset.
  void Reset();

  /// Folds a whole frequency vector into the sketch. Because the sketch is a
  /// linear projection, this is arithmetically identical to applying f_v
  /// single-weight updates per value; values with zero frequency are skipped.
  void Absorb(const stream::FrequencyVector& frequencies);

  /// Merges another sketch of the SAME config/seed: the result summarizes
  /// the concatenation of both input streams (linearity).
  /// Pre-condition: CompatibleWith(other).
  void Merge(const AgmsSketch& other);

  /// ESTJOINSIZE (Fig. 2): median over j of the mean over i of
  /// X^F_ij · X^G_ij. Returns INVALID_ARGUMENT if the synopses were built
  /// with different configurations or seeds.
  static StatusOr<double> EstimateJoinSize(const AgmsSketch& f,
                                           const AgmsSketch& g);

  /// ESTJOINSIZE with provenance: the per-median copy estimates (mean of
  /// products per median group), their spread, an empirical confidence
  /// interval, and the Theorem 1 a-priori envelope 4·sqrt(F̂2(F)·F̂2(G)/s1)
  /// evaluated with the sketches' own self-join estimates. The `estimate`
  /// field is bit-identical to EstimateJoinSize (both median the same
  /// per-copy vector).
  static StatusOr<EstimateReport> EstimateJoinSizeWithReport(
      const AgmsSketch& f, const AgmsSketch& g);

  /// ESTSJSIZE: self-join (second moment F2) estimate.
  double EstimateSelfJoinSize() const;

  /// Self-join provenance (the F = G case of EstimateJoinSizeWithReport);
  /// `estimate` bit-identical to EstimateSelfJoinSize.
  EstimateReport EstimateSelfJoinSizeWithReport() const;

  /// True iff `other` shares this sketch's families (equal config and seed).
  bool CompatibleWith(const AgmsSketch& other) const;

  /// Writes a self-describing text record (config, seed, counters); see
  /// HashSketch::SerializeTo for the distributed-merge use case.
  Status SerializeTo(std::ostream& out) const;

  /// Reads a record written by SerializeTo.
  static StatusOr<AgmsSketch> DeserializeFrom(std::istream& in);

  /// Read-only health probe. Every AGMS update touches every cell, so
  /// occupancy carries no sizing signal and collision pressure is NaN;
  /// the useful fields are the |counter| quantiles and the int32/int64
  /// saturation headroom.
  SynopsisHealth HealthProbe() const;

  const AgmsConfig& config() const { return config_; }
  uint64_t seed() const { return seed_; }

  /// Total footprint in bytes: the object plus counter array and sign
  /// family heap storage. Feeds the per-synopsis memory gauges.
  uint64_t MemoryBytes() const;

  /// Counter (i, j). Exposed for white-box tests.
  int64_t counter(uint64_t mean_index, uint64_t median_index) const;

 private:
  AgmsSketch(const AgmsConfig& config, uint64_t seed);

  /// The s2 independent copy estimates both estimation entry points median:
  /// copy j is the mean over i of X^F_ij · X^G_ij.
  /// Pre-condition: f.CompatibleWith(g).
  static std::vector<double> PerMedianAverages(const AgmsSketch& f,
                                               const AgmsSketch& g);

  uint64_t CellIndex(uint64_t mean_index, uint64_t median_index) const {
    return median_index * config_.num_means + mean_index;
  }

  AgmsConfig config_;
  uint64_t seed_;
  std::vector<hashing::SignHash> signs_;  // one per cell, row-major by median
  std::vector<int64_t> counters_;
  Kernel kernel_ = Kernel::kFast;
};

}  // namespace sketch
}  // namespace skimjoin

#endif  // SKIMJOIN_SKETCH_AGMS_SKETCH_H_
