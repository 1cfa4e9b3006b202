#include "sketch/count_min_sketch.h"

#include <sstream>
#include <utility>

#include "gtest/gtest.h"
#include "stream/zipf.h"
#include "util/random.h"

namespace skimjoin {
namespace sketch {
namespace {

using stream::FrequencyVector;

CountMinSketch MustCreate(const CountMinConfig& config, uint64_t seed) {
  StatusOr<CountMinSketch> sketch = CountMinSketch::Create(config, seed);
  EXPECT_TRUE(sketch.ok()) << sketch.status();
  return *std::move(sketch);
}

TEST(CountMinTest, CreateValidatesConfig) {
  EXPECT_FALSE(CountMinSketch::Create({0, 8}, 1).ok());
  EXPECT_FALSE(CountMinSketch::Create({3, 0}, 1).ok());
  EXPECT_TRUE(CountMinSketch::Create({1, 1}, 1).ok());
}

// The plan cache is built by the first update, so a sketch that never
// ingests (a deserialized delta, a merge target) never allocates one.
TEST(CountMinTest, PlanCacheIsBuiltByTheFirstUpdate) {
  CountMinSketch sketch = MustCreate({5, 512}, 3);
  const uint64_t bare = sketch.MemoryBytes();
  sketch.Update(9, 1);
  EXPECT_EQ(sketch.hash_cache_misses(), 1u);
  EXPECT_GT(sketch.MemoryBytes(), bare);

  std::stringstream record;
  ASSERT_TRUE(sketch.SerializeTo(record).ok());
  StatusOr<CountMinSketch> restored = CountMinSketch::DeserializeFrom(record);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->MemoryBytes(), bare);
  restored->Merge(sketch);
  EXPECT_EQ(restored->MemoryBytes(), bare);
  EXPECT_EQ(restored->PointEstimate(9), 2);
}

TEST(CountMinTest, PointEstimateNeverUnderestimatesInsertOnly) {
  constexpr uint64_t kDomain = 512;
  const FrequencyVector f =
      stream::ZipfDistribution(kDomain, 1.0).ExpectedFrequencies(20000);
  CountMinSketch sketch = MustCreate({5, 128}, 3);
  sketch.Absorb(f);
  for (uint64_t v = 0; v < kDomain; ++v) {
    EXPECT_GE(sketch.PointEstimate(v), f.Get(v)) << "value " << v;
  }
}

TEST(CountMinTest, PointEstimateExactWithoutCollisions) {
  CountMinSketch sketch = MustCreate({5, 1024}, 4);
  sketch.Update(3, 9);
  sketch.Update(900, 2);
  EXPECT_EQ(sketch.PointEstimate(3), 9);
  EXPECT_EQ(sketch.PointEstimate(900), 2);
}

TEST(CountMinTest, JoinEstimateUpperBoundsExactInsertOnly) {
  constexpr uint64_t kDomain = 512;
  const FrequencyVector f =
      stream::ZipfDistribution(kDomain, 1.0).ExpectedFrequencies(10000);
  const FrequencyVector g =
      stream::ZipfDistribution(kDomain, 1.0, /*shift=*/8)
          .ExpectedFrequencies(10000);
  CountMinSketch sf = MustCreate({5, 128}, 6);
  CountMinSketch sg = MustCreate({5, 128}, 6);
  sf.Absorb(f);
  sg.Absorb(g);
  StatusOr<double> join = CountMinSketch::EstimateJoinSize(sf, sg);
  ASSERT_TRUE(join.ok());
  EXPECT_GE(*join, static_cast<double>(stream::JoinSize(f, g)));
}

TEST(CountMinTest, IncompatibleSketchesRejected) {
  CountMinSketch f = MustCreate({3, 32}, 1);
  EXPECT_FALSE(
      CountMinSketch::EstimateJoinSize(f, MustCreate({3, 32}, 2)).ok());
  EXPECT_FALSE(
      CountMinSketch::EstimateJoinSize(f, MustCreate({4, 32}, 1)).ok());
}

TEST(CountMinTest, DeletesReduceCounters) {
  CountMinSketch sketch = MustCreate({5, 64}, 8);
  sketch.Update(10, 5);
  sketch.Update(10, -5);
  EXPECT_EQ(sketch.PointEstimate(10), 0);
}

TEST(CountMinTest, MoreBucketsTightenPointEstimates) {
  constexpr uint64_t kDomain = 2048;
  const FrequencyVector f =
      stream::ZipfDistribution(kDomain, 0.6).ExpectedFrequencies(50000);
  CountMinSketch narrow = MustCreate({5, 32}, 9);
  CountMinSketch wide = MustCreate({5, 2048}, 9);
  narrow.Absorb(f);
  wide.Absorb(f);
  int64_t narrow_excess = 0;
  int64_t wide_excess = 0;
  for (uint64_t v = 0; v < 200; ++v) {
    narrow_excess += narrow.PointEstimate(v) - f.Get(v);
    wide_excess += wide.PointEstimate(v) - f.Get(v);
  }
  EXPECT_LT(wide_excess, narrow_excess);
}

}  // namespace
}  // namespace sketch
}  // namespace skimjoin
