#include "core/skim.h"

#include <cmath>
#include <utility>

#include "gtest/gtest.h"
#include "stream/frequency_vector.h"
#include "stream/zipf.h"
#include "util/random.h"

namespace skimjoin {
namespace core {
namespace {

using sketch::HashSketch;
using sketch::HashSketchConfig;
using stream::FrequencyVector;

HashSketch MustCreate(const HashSketchConfig& config, uint64_t seed) {
  StatusOr<HashSketch> sketch = HashSketch::Create(config, seed);
  EXPECT_TRUE(sketch.ok()) << sketch.status();
  return *std::move(sketch);
}

TEST(LookupDenseTest, EmptyAndMissAndHit) {
  EXPECT_EQ(LookupDense({}, 5), 0);
  const DenseFrequencies dense = {{2, 10}, {7, -3}, {9, 4}};
  EXPECT_EQ(LookupDense(dense, 2), 10);
  EXPECT_EQ(LookupDense(dense, 7), -3);
  EXPECT_EQ(LookupDense(dense, 9), 4);
  EXPECT_EQ(LookupDense(dense, 0), 0);
  EXPECT_EQ(LookupDense(dense, 8), 0);
  EXPECT_EQ(LookupDense(dense, 100), 0);
}

TEST(SkimDenseNaiveTest, ExtractsPlantedHeavyValues) {
  constexpr uint64_t kDomain = 256;
  FrequencyVector f(kDomain);
  // Two clearly dense values on top of unit-frequency background.
  f.Add(10, 1000);
  f.Add(200, 500);
  for (uint64_t v = 0; v < kDomain; ++v) f.Add(v, 1);
  HashSketch sketch = MustCreate({7, 256}, 3);
  sketch.Absorb(f);

  const DenseFrequencies dense = SkimDenseNaive(&sketch, kDomain, 100);
  EXPECT_EQ(LookupDense(dense, 10) > 900, true);
  EXPECT_EQ(LookupDense(dense, 200) > 400, true);
  // Nothing else comes close to the threshold.
  for (const auto& [value, freq] : dense) {
    EXPECT_TRUE(value == 10 || value == 200) << "value " << value;
  }
}

TEST(SkimDenseNaiveTest, NegativeHeavyValuesAreSkimmedToo) {
  constexpr uint64_t kDomain = 128;
  HashSketch sketch = MustCreate({7, 256}, 4);
  sketch.Update(5, -800);  // delete-dominated value
  sketch.Update(9, 700);
  const DenseFrequencies dense = SkimDenseNaive(&sketch, kDomain, 100);
  EXPECT_LT(LookupDense(dense, 5), -700);
  EXPECT_GT(LookupDense(dense, 9), 600);
}

TEST(SkimDenseNaiveTest, NothingDenseYieldsEmptyAndLeavesSketchAlone) {
  constexpr uint64_t kDomain = 64;
  HashSketch sketch = MustCreate({5, 128}, 5);
  for (uint64_t v = 0; v < kDomain; ++v) sketch.Update(v, 2);
  const HashSketch before = sketch;
  const DenseFrequencies dense = SkimDenseNaive(&sketch, kDomain, 50);
  EXPECT_TRUE(dense.empty());
  for (uint64_t table = 0; table < 5; ++table) {
    for (uint64_t bucket = 0; bucket < 128; ++bucket) {
      EXPECT_EQ(sketch.Counter(table, bucket), before.Counter(table, bucket));
    }
  }
}

// The exact linear identity at the heart of the algorithm: the skimmed
// sketch IS the sketch of the residual frequency vector f - Ê, counter for
// counter.
TEST(SkimDenseNaiveTest, SkimmedSketchEqualsSketchOfResidual) {
  constexpr uint64_t kDomain = 512;
  const FrequencyVector f =
      stream::ZipfDistribution(kDomain, 1.3).ExpectedFrequencies(20000);
  HashSketch sketch = MustCreate({5, 128}, 6);
  sketch.Absorb(f);
  HashSketch skimmed = sketch;
  const DenseFrequencies dense = SkimDenseNaive(&skimmed, kDomain, 50);
  ASSERT_FALSE(dense.empty());

  FrequencyVector residual = f;
  for (const auto& [value, freq] : dense) residual.Add(value, -freq);
  HashSketch reference = MustCreate({5, 128}, 6);
  reference.Absorb(residual);
  for (uint64_t table = 0; table < 5; ++table) {
    for (uint64_t bucket = 0; bucket < 128; ++bucket) {
      EXPECT_EQ(skimmed.Counter(table, bucket),
                reference.Counter(table, bucket));
    }
  }
}

TEST(SkimDenseCandidatesTest, HandlesDuplicatesAndNonDense) {
  constexpr uint64_t kDomain = 128;
  HashSketch sketch = MustCreate({5, 256}, 7);
  sketch.Update(3, 500);
  sketch.Update(60, 2);
  const DenseFrequencies dense =
      SkimDenseCandidates(&sketch, {3, 3, 60, 100, 3}, 100);
  ASSERT_EQ(dense.size(), 1u);
  EXPECT_EQ(dense[0].first, 3u);
  EXPECT_NEAR(dense[0].second, 500, 50);
  (void)kDomain;
}

TEST(SkimDenseCandidatesTest, EquivalentToNaiveWhenCandidatesCoverDomain) {
  constexpr uint64_t kDomain = 64;
  FrequencyVector f(kDomain);
  f.Add(1, 300);
  f.Add(33, 450);
  for (uint64_t v = 0; v < kDomain; ++v) f.Add(v, 3);
  HashSketch a = MustCreate({7, 128}, 8);
  HashSketch b = MustCreate({7, 128}, 8);
  a.Absorb(f);
  b.Absorb(f);
  std::vector<uint64_t> all;
  for (uint64_t v = 0; v < kDomain; ++v) all.push_back(v);
  const DenseFrequencies naive = SkimDenseNaive(&a, kDomain, 100);
  const DenseFrequencies via_candidates = SkimDenseCandidates(&b, all, 100);
  EXPECT_EQ(naive, via_candidates);
}

TEST(SkimMarginTest, MarginWithholdsPartOfTheEstimate) {
  HashSketch sketch = MustCreate({5, 1024}, 31);
  sketch.Update(9, 500);  // isolated → estimate exactly 500
  const DenseFrequencies dense =
      SkimDenseNaive(&sketch, /*domain_size=*/64, /*threshold=*/100,
                     /*margin=*/50);
  ASSERT_EQ(dense.size(), 1u);
  EXPECT_EQ(dense[0].second, 450);  // 500 - 50
  // The residual 50 stays in the sketch.
  EXPECT_EQ(sketch.PointEstimate(9), 50);
}

TEST(SkimMarginTest, MarginPreservesSignForNegativeValues) {
  HashSketch sketch = MustCreate({5, 1024}, 32);
  sketch.Update(9, -500);
  const DenseFrequencies dense =
      SkimDenseNaive(&sketch, 64, /*threshold=*/100, /*margin=*/50);
  ASSERT_EQ(dense.size(), 1u);
  EXPECT_EQ(dense[0].second, -450);
  EXPECT_EQ(sketch.PointEstimate(9), -50);
}

TEST(SkimMarginTest, MarginSwallowingTheEstimateSkipsTheValue) {
  HashSketch sketch = MustCreate({5, 1024}, 33);
  sketch.Update(9, 100);
  const DenseFrequencies dense =
      SkimDenseNaive(&sketch, 64, /*threshold=*/100, /*margin=*/200);
  EXPECT_TRUE(dense.empty());
  EXPECT_EQ(sketch.PointEstimate(9), 100);  // untouched
}

TEST(SkimMarginTest, ResidualIdentityStillExactWithMargin) {
  constexpr uint64_t kDomain = 256;
  const FrequencyVector f =
      stream::ZipfDistribution(kDomain, 1.3).ExpectedFrequencies(10000);
  HashSketch skimmed = MustCreate({5, 128}, 34);
  skimmed.Absorb(f);
  const DenseFrequencies dense =
      SkimDenseNaive(&skimmed, kDomain, /*threshold=*/50, /*margin=*/20);
  FrequencyVector residual = f;
  for (const auto& [value, freq] : dense) residual.Add(value, -freq);
  HashSketch reference = MustCreate({5, 128}, 34);
  reference.Absorb(residual);
  for (uint64_t table = 0; table < 5; ++table) {
    for (uint64_t bucket = 0; bucket < 128; ++bucket) {
      EXPECT_EQ(skimmed.Counter(table, bucket),
                reference.Counter(table, bucket));
    }
  }
}

TEST(DenseDenseJoinTest, MergeJoinOverSortedVectors) {
  const DenseFrequencies f = {{1, 2}, {5, 3}, {9, 10}};
  const DenseFrequencies g = {{0, 7}, {5, 4}, {9, -2}, {12, 100}};
  EXPECT_EQ(DenseDenseJoin(f, g), 3 * 4 + 10 * (-2));
}

TEST(DenseDenseJoinTest, EmptyAndDisjoint) {
  EXPECT_EQ(DenseDenseJoin({}, {}), 0);
  EXPECT_EQ(DenseDenseJoin({{1, 5}}, {}), 0);
  EXPECT_EQ(DenseDenseJoin({{1, 5}}, {{2, 5}}), 0);
}

// Dense frequencies are data: a product past 2^63 is an answer, not a
// reason to abort. 9e9 · 9e9 = 8.1e19 > 2^63 ≈ 9.22e18.
TEST(DenseDenseJoinTest, TotalPastInt64IsAnswered) {
  const int64_t heavy = 9'000'000'000;
  EXPECT_EQ(DenseDenseJoin({{7, heavy}}, {{7, heavy}}), 8.1e19);
  // Partial sums may pass int64 as long as the total comes back.
  EXPECT_EQ(
      DenseDenseJoin({{1, heavy}, {2, heavy}}, {{1, heavy}, {2, -heavy}}), 0);
}

TEST(EstimateSubJoinSizeTest, ExactWhenSketchHasNoCollisions) {
  // Residual g has three isolated values; the dense side names two of them.
  HashSketch g = MustCreate({5, 1024}, 9);
  g.Update(10, 4);
  g.Update(20, -6);
  g.Update(30, 8);
  const DenseFrequencies dense_f = {{10, 100}, {20, 50}, {99, 7}};
  // With no bucket collisions each per-table sum is exactly
  // 100*4 + 50*(-6) + 7*0 = 100.
  EXPECT_DOUBLE_EQ(EstimateSubJoinSize(dense_f, g), 100.0);
}

TEST(EstimateSubJoinSizeTest, EmptyDenseSideIsZero) {
  HashSketch g = MustCreate({3, 64}, 10);
  g.Update(1, 100);
  EXPECT_DOUBLE_EQ(EstimateSubJoinSize({}, g), 0.0);
}

TEST(EstimateSubJoinSizeTest, UnbiasedAcrossSeeds) {
  constexpr uint64_t kDomain = 128;
  FrequencyVector g(kDomain);
  Rng rng(11);
  for (int i = 0; i < 2000; ++i) g.Add(rng.NextUint64Below(kDomain), 1);
  const DenseFrequencies dense_f = {{3, 40}, {70, 25}};
  const double exact = 40.0 * g.Get(3) + 25.0 * g.Get(70);
  double sum = 0.0;
  constexpr int kSeeds = 150;
  for (int seed = 0; seed < kSeeds; ++seed) {
    HashSketch sg = MustCreate({1, 32}, static_cast<uint64_t>(seed) + 900);
    sg.Absorb(g);
    sum += EstimateSubJoinSize(dense_f, sg);
  }
  EXPECT_NEAR(sum / kSeeds, exact, 0.25 * exact + 10);
}

// The worked example of §3 in spirit: two streams whose dense values
// dominate; skimming plus exact dense·dense recovers most of the join mass.
TEST(SkimExampleTest, PaperExampleScenario) {
  constexpr uint64_t kDomain = 16;
  FrequencyVector f(kDomain);
  FrequencyVector g(kDomain);
  f.Add(0, 40);
  f.Add(1, 36);
  for (uint64_t v = 2; v < kDomain; ++v) f.Add(v, 2);
  g.Add(0, 38);
  g.Add(2, 30);
  for (uint64_t v = 3; v < kDomain; ++v) g.Add(v, 1);

  HashSketch sf = MustCreate({5, 64}, 12);
  HashSketch sg = MustCreate({5, 64}, 12);
  sf.Absorb(f);
  sg.Absorb(g);
  const DenseFrequencies dense_f = SkimDenseNaive(&sf, kDomain, 10);
  const DenseFrequencies dense_g = SkimDenseNaive(&sg, kDomain, 10);
  EXPECT_GE(LookupDense(dense_f, 0), 30);
  EXPECT_GE(LookupDense(dense_f, 1), 26);
  EXPECT_GE(LookupDense(dense_g, 0), 28);
  EXPECT_GE(LookupDense(dense_g, 2), 20);

  const double estimate =
      DenseDenseJoin(dense_f, dense_g) +
      EstimateSubJoinSize(dense_f, sg) + EstimateSubJoinSize(dense_g, sf) +
      *sketch::HashSketch::EstimateJoinSize(sf, sg);
  const double exact = static_cast<double>(stream::JoinSize(f, g));
  EXPECT_NEAR(estimate, exact, 0.25 * exact);
}

}  // namespace
}  // namespace core
}  // namespace skimjoin
