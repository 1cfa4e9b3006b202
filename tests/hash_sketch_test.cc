#include "sketch/hash_sketch.h"

#include <cmath>
#include <cstdlib>
#include <sstream>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "stream/exact.h"
#include "stream/zipf.h"
#include "util/random.h"
#include "util/stats.h"

namespace skimjoin {
namespace sketch {
namespace {

using stream::FrequencyVector;

HashSketch MustCreate(const HashSketchConfig& config, uint64_t seed) {
  StatusOr<HashSketch> sketch = HashSketch::Create(config, seed);
  EXPECT_TRUE(sketch.ok()) << sketch.status();
  return *std::move(sketch);
}

TEST(HashSketchTest, CreateValidatesConfig) {
  EXPECT_FALSE(HashSketch::Create({0, 8}, 1).ok());
  EXPECT_FALSE(HashSketch::Create({3, 0}, 1).ok());
  EXPECT_TRUE(HashSketch::Create({1, 1}, 1).ok());
}

TEST(HashSketchTest, UpdateTouchesOneBucketPerTable) {
  HashSketch sketch = MustCreate({3, 16}, 1);
  sketch.Update(5, 4);
  for (uint64_t table = 0; table < 3; ++table) {
    int non_zero = 0;
    for (uint64_t bucket = 0; bucket < 16; ++bucket) {
      non_zero += (sketch.Counter(table, bucket) != 0);
    }
    EXPECT_EQ(non_zero, 1) << "table " << table;
    EXPECT_EQ(sketch.Counter(table, sketch.Bucket(table, 5)),
              sketch.Sign(table, 5) * 4);
  }
}

// The plan cache is built by the first update, so a sketch that never
// ingests (a deserialized delta, a merge target) never allocates one.
TEST(HashSketchTest, PlanCacheIsBuiltByTheFirstUpdate) {
  HashSketch sketch = MustCreate({7, 512}, 3);
  const uint64_t bare = sketch.MemoryBytes();
  sketch.Update(9, 1);
  EXPECT_EQ(sketch.hash_cache_misses(), 1u);
  EXPECT_GT(sketch.MemoryBytes(), bare);

  std::stringstream record;
  ASSERT_TRUE(sketch.SerializeTo(record).ok());
  StatusOr<HashSketch> restored = HashSketch::DeserializeFrom(record);
  ASSERT_TRUE(restored.ok()) << restored.status();
  EXPECT_EQ(restored->MemoryBytes(), bare);
  restored->Merge(sketch);
  EXPECT_EQ(restored->MemoryBytes(), bare);
  EXPECT_EQ(restored->PointEstimate(9), 2);
}

TEST(HashSketchTest, PointEstimateExactWhenNoCollisions) {
  // Few values, many buckets: point estimates should be exact with high
  // probability; we use a fixed seed known to avoid collisions.
  HashSketch sketch = MustCreate({5, 1024}, 3);
  sketch.Update(10, 7);
  sketch.Update(20, -4);
  sketch.Update(30, 100);
  EXPECT_EQ(sketch.PointEstimate(10), 7);
  EXPECT_EQ(sketch.PointEstimate(20), -4);
  EXPECT_EQ(sketch.PointEstimate(30), 100);
  EXPECT_EQ(sketch.PointEstimate(40), 0);
}

// PointEstimate keeps up to 32 per-table estimates on the stack; wider
// sketches take them from the heap. Both sides of that bound median the
// same per-table estimates.
TEST(HashSketchTest, PointEstimateMediansEveryTableAtAnyWidth) {
  for (const uint64_t tables : {32, 33, 40}) {
    HashSketch sketch = MustCreate({tables, 16}, 9);
    for (uint64_t value = 0; value < 64; ++value) {
      sketch.Update(value, static_cast<int64_t>(value % 7) - 3);
    }
    for (uint64_t value = 0; value < 64; ++value) {
      std::vector<int64_t> per_table;
      for (uint64_t table = 0; table < tables; ++table) {
        per_table.push_back(sketch.Sign(table, value) *
                            sketch.Counter(table, sketch.Bucket(table, value)));
      }
      EXPECT_EQ(sketch.PointEstimate(value), MedianInt64(per_table))
          << "tables=" << tables << " value=" << value;
    }
  }
}

TEST(HashSketchTest, PointEstimateErrorBoundedOnSkewedData) {
  constexpr uint64_t kDomain = 1u << 10;
  const FrequencyVector f =
      stream::ZipfDistribution(kDomain, 1.2).ExpectedFrequencies(50000);
  HashSketch sketch = MustCreate({7, 512}, 5);
  sketch.Absorb(f);
  // Residual F2 per bucket gives error scale sqrt(F2/b); heavy values must
  // be recovered within a generous multiple of that.
  const double error_scale =
      std::sqrt(static_cast<double>(f.SelfJoinSize()) / 512.0);
  for (uint64_t v = 0; v < 20; ++v) {
    EXPECT_NEAR(sketch.PointEstimate(v), f.Get(v), 8 * error_scale + 1)
        << "value " << v;
  }
}

TEST(HashSketchTest, InsertThenDeleteCancelsExactly) {
  HashSketch sketch = MustCreate({5, 64}, 2);
  const HashSketch empty = MustCreate({5, 64}, 2);
  for (uint64_t v = 0; v < 100; ++v) sketch.Update(v, 3);
  for (uint64_t v = 0; v < 100; ++v) sketch.Update(v, -3);
  for (uint64_t table = 0; table < 5; ++table) {
    for (uint64_t bucket = 0; bucket < 64; ++bucket) {
      EXPECT_EQ(sketch.Counter(table, bucket), empty.Counter(table, bucket));
    }
  }
}

TEST(HashSketchTest, AbsorbMatchesElementwiseUpdates) {
  FrequencyVector fv(128);
  Rng rng(6);
  for (int i = 0; i < 1000; ++i) fv.Add(rng.NextUint64Below(128), 1);
  HashSketch by_absorb = MustCreate({5, 32}, 9);
  by_absorb.Absorb(fv);
  HashSketch by_updates = MustCreate({5, 32}, 9);
  for (uint64_t v = 0; v < 128; ++v) {
    for (int64_t c = 0; c < fv.Get(v); ++c) by_updates.Update(v, 1);
  }
  for (uint64_t table = 0; table < 5; ++table) {
    for (uint64_t bucket = 0; bucket < 32; ++bucket) {
      EXPECT_EQ(by_absorb.Counter(table, bucket),
                by_updates.Counter(table, bucket));
    }
  }
}

TEST(HashSketchTest, MergeEqualsConcatenatedStream) {
  HashSketch part1 = MustCreate({3, 32}, 4);
  HashSketch part2 = MustCreate({3, 32}, 4);
  HashSketch whole = MustCreate({3, 32}, 4);
  for (uint64_t v = 0; v < 40; ++v) {
    part1.Update(v, 1);
    whole.Update(v, 1);
  }
  for (uint64_t v = 30; v < 80; ++v) {
    part2.Update(v, 2);
    whole.Update(v, 2);
  }
  part1.Merge(part2);
  for (uint64_t table = 0; table < 3; ++table) {
    for (uint64_t bucket = 0; bucket < 32; ++bucket) {
      EXPECT_EQ(part1.Counter(table, bucket), whole.Counter(table, bucket));
    }
  }
}

TEST(HashSketchTest, IncompatibleSketchesRejected) {
  HashSketch f = MustCreate({3, 32}, 1);
  EXPECT_FALSE(
      HashSketch::EstimateJoinSize(f, MustCreate({3, 32}, 2)).ok());
  EXPECT_FALSE(
      HashSketch::EstimateJoinSize(f, MustCreate({5, 32}, 1)).ok());
  EXPECT_FALSE(
      HashSketch::EstimateJoinSize(f, MustCreate({3, 64}, 1)).ok());
  EXPECT_TRUE(f.CompatibleWith(MustCreate({3, 32}, 1)));
}

TEST(HashSketchTest, SingleSharedValueJoinIsExact) {
  HashSketch f = MustCreate({3, 64}, 7);
  HashSketch g = MustCreate({3, 64}, 7);
  f.Update(42, 6);
  g.Update(42, 5);
  StatusOr<double> join = HashSketch::EstimateJoinSize(f, g);
  ASSERT_TRUE(join.ok());
  EXPECT_DOUBLE_EQ(*join, 30.0);
}

TEST(HashSketchTest, JoinEstimateIsUnbiasedAcrossSeeds) {
  constexpr uint64_t kDomain = 128;
  const FrequencyVector f =
      stream::ZipfDistribution(kDomain, 1.0).ExpectedFrequencies(5000);
  const FrequencyVector g =
      stream::ZipfDistribution(kDomain, 1.0, /*shift=*/4)
          .ExpectedFrequencies(5000);
  const double exact = static_cast<double>(stream::JoinSize(f, g));
  double sum = 0.0;
  constexpr int kSeeds = 120;
  for (int seed = 0; seed < kSeeds; ++seed) {
    HashSketch sf = MustCreate({1, 64}, static_cast<uint64_t>(seed) + 500);
    HashSketch sg = MustCreate({1, 64}, static_cast<uint64_t>(seed) + 500);
    sf.Absorb(f);
    sg.Absorb(g);
    StatusOr<double> join = HashSketch::EstimateJoinSize(sf, sg);
    ASSERT_TRUE(join.ok());
    sum += *join;
  }
  EXPECT_NEAR(sum / kSeeds, exact, 0.25 * exact);
}

TEST(HashSketchTest, SelfJoinEstimateTracksExactOnUniformData) {
  constexpr uint64_t kDomain = 4096;
  FrequencyVector f(kDomain);
  for (uint64_t v = 0; v < kDomain; ++v) f.Add(v, 5);
  HashSketch sketch = MustCreate({7, 1024}, 13);
  sketch.Absorb(f);
  const double exact = static_cast<double>(f.SelfJoinSize());
  EXPECT_NEAR(sketch.EstimateSelfJoinSize(), exact, 0.25 * exact);
}

TEST(HashSketchTest, DisjointStreamsEstimateNearZero) {
  HashSketch f = MustCreate({7, 256}, 21);
  HashSketch g = MustCreate({7, 256}, 21);
  for (uint64_t v = 0; v < 500; ++v) f.Update(v, 10);
  for (uint64_t v = 2048; v < 2548; ++v) g.Update(v, 10);
  StatusOr<double> join = HashSketch::EstimateJoinSize(f, g);
  ASSERT_TRUE(join.ok());
  // True join is 0; noise scale is sqrt(F2f·F2g/b) = sqrt(5e4·5e4/256)·10²...
  const double noise =
      std::sqrt(500.0 * 100 * 500.0 * 100 / 256.0);
  EXPECT_LT(std::abs(*join), 8 * noise);
}

// Parameterized: with a fixed workload, more buckets must not make the
// median-of-tables estimate worse (checked loosely via error ordering over
// a few seeds).
class HashSketchBucketsTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(HashSketchBucketsTest, EstimateWithinNoiseEnvelope) {
  const uint64_t buckets = GetParam();
  constexpr uint64_t kDomain = 512;
  const FrequencyVector f =
      stream::ZipfDistribution(kDomain, 1.0).ExpectedFrequencies(20000);
  const FrequencyVector g =
      stream::ZipfDistribution(kDomain, 1.0, /*shift=*/8)
          .ExpectedFrequencies(20000);
  const double exact = static_cast<double>(stream::JoinSize(f, g));
  HashSketch sf = MustCreate({7, buckets}, 33);
  HashSketch sg = MustCreate({7, buckets}, 33);
  sf.Absorb(f);
  sg.Absorb(g);
  StatusOr<double> join = HashSketch::EstimateJoinSize(sf, sg);
  ASSERT_TRUE(join.ok());
  const double envelope =
      8.0 *
      std::sqrt(static_cast<double>(f.SelfJoinSize()) *
                static_cast<double>(g.SelfJoinSize()) /
                static_cast<double>(buckets));
  EXPECT_NEAR(*join, exact, envelope) << "buckets=" << buckets;
}

INSTANTIATE_TEST_SUITE_P(Buckets, HashSketchBucketsTest,
                         ::testing::Values(64, 128, 256, 512, 1024));

}  // namespace
}  // namespace sketch
}  // namespace skimjoin
