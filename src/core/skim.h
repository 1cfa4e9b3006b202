// SKIMDENSE (Fig. 3 of the paper): extracting dense frequencies out of a
// hash sketch.
//
// Given a hash sketch of stream F and a threshold T, skimming (a) estimates
// per-value frequencies with the COUNTSKETCH point estimator, (b) moves
// every estimate with magnitude >= T into an explicitly-stored dense
// frequency vector Ê, and (c) subtracts Ê back out of the sketch counters
// (steps 8–9), leaving a *skimmed* sketch that is — exactly, by linearity —
// the sketch of the residual frequencies f − Ê.
//
// The four-way subjoin decomposition in core/skimmed_sketch.* is an exact
// identity for any Ê, so skimming never biases the estimator; it exists to
// slash the residual self-join sizes that drive the estimator's variance.

#ifndef SKIMJOIN_CORE_SKIM_H_
#define SKIMJOIN_CORE_SKIM_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "sketch/hash_sketch.h"

namespace skimjoin {
namespace core {

/// Sparse dense-frequency vector Ê: (value, skimmed frequency) pairs sorted
/// by value, every frequency non-zero.
using DenseFrequencies = std::vector<std::pair<uint64_t, int64_t>>;

/// Frequency recorded for `value` in `dense`, or 0 if it was not skimmed.
int64_t LookupDense(const DenseFrequencies& dense, uint64_t value);

/// Naive SKIMDENSE: scans every value of [0, domain_size), extracts point
/// estimates with |estimate| >= threshold into the result, and subtracts
/// them from *sketch (which afterwards holds only residual frequencies).
/// O(domain_size · num_tables) time — the dyadic variant in dyadic_skim.h
/// avoids the domain scan. Pre-conditions: threshold >= 1, margin >= 0.
///
/// The scan runs on the block point estimator (sketch::PointScan): hashes
/// by finite-difference chains, counters gathered and medianed a block of
/// values at a time, in SIMD lanes where the CPU has them (EXPERIMENTS.md
/// has its cost against the dyadic search). It keeps Fig. 3's sequential
/// semantics: after a dense value is subtracted, the rest of its block is
/// re-estimated before the next value is tested, so the result is
/// bit-identical to PointEstimate-then-Update value by value. Dense values
/// are subtracted with UpdateUncached, so a residual copy never builds a
/// plan cache.
///
/// Extraction triggers on |estimate| so that net-negative heavy values
/// (delete-dominated streams) are skimmed too; for insert-only streams this
/// matches the paper's est >= T rule.
///
/// `margin` implements the conservative variant behind Theorem 4: instead
/// of skimming the full estimate, |estimate| - margin is skimmed (sign
/// preserved), which keeps Ê below the true frequency with high probability
/// (point estimates err by at most ±margin when margin is set to the
/// estimation-error scale) at the cost of leaving up to `margin` extra
/// residual mass per dense value. margin = 0 is the Fig. 3 behaviour.
DenseFrequencies SkimDenseNaive(sketch::HashSketch* sketch,
                                uint64_t domain_size, int64_t threshold,
                                int64_t margin = 0);

/// SKIMDENSE restricted to a candidate set (produced by the dyadic search).
/// Candidates may contain duplicates or non-dense values; both are handled.
/// Per value: PointEstimate, then UpdateUncached for a dense one.
/// Pre-conditions: threshold >= 1, margin >= 0.
DenseFrequencies SkimDenseCandidates(sketch::HashSketch* sketch,
                                     const std::vector<uint64_t>& candidates,
                                     int64_t threshold, int64_t margin = 0);

/// Exact dense·dense subjoin Σ_v Ê_F(v)·Ê_G(v) (step 2 of ESTSKIMJOINSIZE;
/// computed with zero error since both vectors are explicit). Summed in 128
/// bits and returned as a double like the other sub-joins, so a total past
/// int64 rounds instead of aborting; one that fits int64 converts exactly
/// as it did through int64.
double DenseDenseJoin(const DenseFrequencies& f, const DenseFrequencies& g);

/// ESTSUBJOINSIZE (Fig. 4): estimate of Σ_v Ê_F(v)·r_G(v), the subjoin of
/// the explicit dense frequencies of F with the residual (sparse)
/// frequencies summarized by G's skimmed sketch. Per table j it sums
/// Ê_F(v)·ξ_j(v)·C_G[j][h_j(v)] over the dense values and medians the
/// per-table sums.
double EstimateSubJoinSize(const DenseFrequencies& dense_f,
                           const sketch::HashSketch& skimmed_g);

/// The per-table copy estimates ESTSUBJOINSIZE medians (copy j is the sum
/// over dense values of Ê_F(v)·ξ_j(v)·C_G[j][h_j(v)]). Exposed so the
/// skimmed estimator can report sub-join provenance
/// (SkimmedSketch::EstimateJoinSizeWithReport).
std::vector<double> EstimateSubJoinSizePerTable(
    const DenseFrequencies& dense_f, const sketch::HashSketch& skimmed_g);

}  // namespace core
}  // namespace skimjoin

#endif  // SKIMJOIN_CORE_SKIM_H_
