#include "sketch/reservoir_sample.h"

#include <algorithm>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "util/random.h"

namespace skimjoin {
namespace sketch {
namespace {

ReservoirSample MustCreate(uint64_t capacity, uint64_t seed) {
  StatusOr<ReservoirSample> sample = ReservoirSample::Create(capacity, seed);
  EXPECT_TRUE(sample.ok()) << sample.status();
  return *std::move(sample);
}

TEST(ReservoirTest, CreateValidatesCapacity) {
  EXPECT_FALSE(ReservoirSample::Create(0, 1).ok());
  EXPECT_TRUE(ReservoirSample::Create(1, 1).ok());
}

TEST(ReservoirTest, KeepsEverythingBelowCapacity) {
  ReservoirSample sample = MustCreate(10, 1);
  for (uint64_t v = 0; v < 7; ++v) sample.Update(v, 1);
  EXPECT_EQ(sample.sample().size(), 7u);
  EXPECT_EQ(sample.stream_size(), 7);
}

TEST(ReservoirTest, NeverExceedsCapacity) {
  ReservoirSample sample = MustCreate(16, 2);
  for (uint64_t v = 0; v < 10000; ++v) sample.Update(v % 97, 1);
  EXPECT_EQ(sample.sample().size(), 16u);
  EXPECT_EQ(sample.stream_size(), 10000);
}

TEST(ReservoirTest, SampleIsRoughlyUniformOverPositions) {
  // Insert 0..999 into a capacity-100 reservoir many times; the average
  // sampled value should be near 500 (uniform over arrival positions).
  double total = 0.0;
  int count = 0;
  for (uint64_t seed = 0; seed < 50; ++seed) {
    ReservoirSample sample = MustCreate(100, seed);
    for (uint64_t v = 0; v < 1000; ++v) sample.Update(v, 1);
    for (uint64_t v : sample.sample()) {
      total += static_cast<double>(v);
      ++count;
    }
  }
  EXPECT_NEAR(total / count, 500.0, 30.0);
}

TEST(ReservoirTest, DeleteRemovesSampledCopy) {
  ReservoirSample sample = MustCreate(10, 3);
  sample.Update(5, 1);
  sample.Update(6, 1);
  sample.Update(5, -1);
  EXPECT_EQ(sample.stream_size(), 1);
  EXPECT_EQ(std::count(sample.sample().begin(), sample.sample().end(), 5), 0);
  EXPECT_EQ(std::count(sample.sample().begin(), sample.sample().end(), 6), 1);
}

TEST(ReservoirTest, DeleteOfUnsampledValueOnlyAdjustsCount) {
  ReservoirSample sample = MustCreate(2, 4);
  sample.Update(1, 1);
  sample.Update(2, 1);
  sample.Update(99, -1);  // never sampled
  EXPECT_EQ(sample.stream_size(), 1);
  EXPECT_EQ(sample.sample().size(), 2u);
}

// A weight w is |w| unit inserts (w > 0) or unit deletes (w < 0), so a
// weighted feed keeps the sample and stream size a unit feed keeps, down to
// the Algorithm R draws past capacity.
TEST(ReservoirTest, WeightsApplyAsUnitUpdates) {
  ReservoirSample weighted = MustCreate(4, 5);
  ReservoirSample unit = MustCreate(4, 5);
  const std::vector<std::pair<uint64_t, int64_t>> feed = {
      {2, 3}, {5, -2}, {7, 0}, {9, 20}, {2, -1}};
  for (const auto& [value, weight] : feed) {
    weighted.Update(value, weight);
    for (int64_t i = 0; i < weight; ++i) unit.Update(value, 1);
    for (int64_t i = 0; i > weight; --i) unit.Update(value, -1);
  }
  EXPECT_EQ(weighted.sample(), unit.sample());
  EXPECT_EQ(weighted.stream_size(), unit.stream_size());
  EXPECT_EQ(weighted.stream_size(), 20);
}

TEST(ReservoirTest, EmptySamplesEstimateZero) {
  ReservoirSample f = MustCreate(4, 6);
  ReservoirSample g = MustCreate(4, 7);
  EXPECT_DOUBLE_EQ(ReservoirSample::EstimateJoinSize(f, g), 0.0);
}

TEST(ReservoirTest, FullyCapturedStreamsEstimateExactly) {
  // Capacity >= stream length means the "sample" is the whole stream and the
  // scaled estimate equals the exact join size.
  ReservoirSample f = MustCreate(100, 8);
  ReservoirSample g = MustCreate(100, 9);
  // f: value 1 x3, value 2 x2; g: value 1 x4, value 3 x5.
  for (int i = 0; i < 3; ++i) f.Update(1, 1);
  for (int i = 0; i < 2; ++i) f.Update(2, 1);
  for (int i = 0; i < 4; ++i) g.Update(1, 1);
  for (int i = 0; i < 5; ++i) g.Update(3, 1);
  EXPECT_DOUBLE_EQ(ReservoirSample::EstimateJoinSize(f, g), 12.0);
}

TEST(ReservoirTest, ScaledEstimateIsInRightBallparkOnUniformData) {
  // Uniform frequencies: sampling does okay. f = g = each of 100 values
  // appearing 50 times; exact join = 100 * 2500 = 250000.
  ReservoirSample f = MustCreate(400, 10);
  ReservoirSample g = MustCreate(400, 11);
  for (int rep = 0; rep < 50; ++rep) {
    for (uint64_t v = 0; v < 100; ++v) {
      f.Update(v, 1);
      g.Update(v, 1);
    }
  }
  const double estimate = ReservoirSample::EstimateJoinSize(f, g);
  EXPECT_NEAR(estimate, 250000.0, 125000.0);
}

}  // namespace
}  // namespace sketch
}  // namespace skimjoin
