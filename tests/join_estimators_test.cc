#include "core/join_estimators.h"

#include <memory>
#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "sketch/partitioned_agms.h"
#include "stream/exact.h"
#include "stream/zipf.h"

namespace skimjoin {
namespace core {
namespace {

using stream::FrequencyVector;

EstimatorSpec BaseSpec(EstimatorKind kind) {
  EstimatorSpec spec;
  spec.kind = kind;
  spec.domain_size = 1u << 10;
  spec.space_counters = 2048;
  return spec;
}

TEST(EstimatorKindNameTest, AllKindsNamed) {
  EXPECT_STREQ(EstimatorKindName(EstimatorKind::kAgms), "agms");
  EXPECT_STREQ(EstimatorKindName(EstimatorKind::kHashSketch), "hash-sketch");
  EXPECT_STREQ(EstimatorKindName(EstimatorKind::kSkimmedSketch), "skimmed");
  EXPECT_STREQ(EstimatorKindName(EstimatorKind::kCountMin), "count-min");
  EXPECT_STREQ(EstimatorKindName(EstimatorKind::kSampling), "sampling");
}

TEST(CreateJoinEstimatorPairTest, RejectsZeroSpace) {
  EstimatorSpec spec = BaseSpec(EstimatorKind::kAgms);
  spec.space_counters = 0;
  EXPECT_FALSE(CreateJoinEstimatorPair(spec, 1).ok());
}

TEST(CreateJoinEstimatorPairTest, RejectsSpaceSmallerThanShape) {
  EstimatorSpec spec = BaseSpec(EstimatorKind::kAgms);
  spec.space_counters = 3;
  spec.agms_num_medians = 5;
  EXPECT_FALSE(CreateJoinEstimatorPair(spec, 1).ok());

  spec = BaseSpec(EstimatorKind::kHashSketch);
  spec.space_counters = 3;
  spec.num_tables = 7;
  EXPECT_FALSE(CreateJoinEstimatorPair(spec, 1).ok());
}

TEST(CreateJoinEstimatorPairTest, BuildsEveryKindWithCorrectName) {
  for (EstimatorKind kind :
       {EstimatorKind::kAgms, EstimatorKind::kHashSketch,
        EstimatorKind::kSkimmedSketch, EstimatorKind::kCountMin,
        EstimatorKind::kSampling}) {
    StatusOr<std::unique_ptr<JoinEstimatorPair>> pair =
        CreateJoinEstimatorPair(BaseSpec(kind), 7);
    ASSERT_TRUE(pair.ok()) << pair.status();
    EXPECT_STREQ((*pair)->Name(), EstimatorKindName(kind));
    EXPECT_GT((*pair)->SpaceCounters(), 0u);
  }
}

TEST(CreateJoinEstimatorPairTest, SpaceAccountingNearBudget) {
  for (EstimatorKind kind : {EstimatorKind::kAgms, EstimatorKind::kHashSketch,
                             EstimatorKind::kSkimmedSketch}) {
    StatusOr<std::unique_ptr<JoinEstimatorPair>> pair =
        CreateJoinEstimatorPair(BaseSpec(kind), 7);
    ASSERT_TRUE(pair.ok());
    EXPECT_LE((*pair)->SpaceCounters(), 2048u);
    EXPECT_GE((*pair)->SpaceCounters(), 1024u);  // within 2x due to rounding
  }
}

TEST(CreateJoinEstimatorPairTest, DyadicSkimStaysInsideBudget) {
  EstimatorSpec spec = BaseSpec(EstimatorKind::kSkimmedSketch);
  spec.skimmed_use_dyadic = true;
  StatusOr<std::unique_ptr<JoinEstimatorPair>> pair =
      CreateJoinEstimatorPair(spec, 9);
  ASSERT_TRUE(pair.ok()) << pair.status();
  // Level 0 plus 10 auxiliary levels must stay near the requested budget.
  EXPECT_LE((*pair)->SpaceCounters(), 2 * spec.space_counters);
}

// The dyadic split used to divide by log2(domain) before the sketch could
// reject a domain too small to split (SIGFPE for domains 0 and 1).
TEST(CreateJoinEstimatorPairTest, DyadicSkimRejectsDomainsTooSmallToSplit) {
  for (const uint64_t domain : {uint64_t{0}, uint64_t{1}}) {
    EstimatorSpec spec = BaseSpec(EstimatorKind::kSkimmedSketch);
    spec.skimmed_use_dyadic = true;
    spec.domain_size = domain;
    EXPECT_EQ(CreateJoinEstimatorPair(spec, 9).status().code(),
              StatusCode::kInvalidArgument)
        << domain;
  }
}

TEST(JoinEstimatorPairTest, SketchEstimatorsTrackExactJoin) {
  constexpr uint64_t kDomain = 1u << 10;
  const FrequencyVector f =
      stream::ZipfDistribution(kDomain, 1.2).ExpectedFrequencies(30000);
  const FrequencyVector g =
      stream::ZipfDistribution(kDomain, 1.2, /*shift=*/8)
          .ExpectedFrequencies(30000);
  const double exact = static_cast<double>(stream::JoinSize(f, g));

  for (EstimatorKind kind : {EstimatorKind::kAgms, EstimatorKind::kHashSketch,
                             EstimatorKind::kSkimmedSketch}) {
    StatusOr<std::unique_ptr<JoinEstimatorPair>> pair =
        CreateJoinEstimatorPair(BaseSpec(kind), 11);
    ASSERT_TRUE(pair.ok());
    (*pair)->AbsorbF(f);
    (*pair)->AbsorbG(g);
    StatusOr<double> estimate = (*pair)->Estimate();
    ASSERT_TRUE(estimate.ok()) << (*pair)->Name();
    EXPECT_NEAR(*estimate, exact, 0.5 * exact) << (*pair)->Name();
  }
}

TEST(JoinEstimatorPairTest, CountMinUpperBounds) {
  constexpr uint64_t kDomain = 1u << 10;
  const FrequencyVector f =
      stream::ZipfDistribution(kDomain, 1.0).ExpectedFrequencies(20000);
  StatusOr<std::unique_ptr<JoinEstimatorPair>> pair =
      CreateJoinEstimatorPair(BaseSpec(EstimatorKind::kCountMin), 13);
  ASSERT_TRUE(pair.ok());
  (*pair)->AbsorbF(f);
  (*pair)->AbsorbG(f);
  StatusOr<double> estimate = (*pair)->Estimate();
  ASSERT_TRUE(estimate.ok());
  EXPECT_GE(*estimate, static_cast<double>(f.SelfJoinSize()));
}

TEST(JoinEstimatorPairTest, SamplingAbsorbExpandsToUnitInserts) {
  FrequencyVector f(64);
  f.Add(5, 100);
  f.Add(6, 50);
  EstimatorSpec spec = BaseSpec(EstimatorKind::kSampling);
  spec.space_counters = 1000;  // capacity larger than the stream
  StatusOr<std::unique_ptr<JoinEstimatorPair>> pair =
      CreateJoinEstimatorPair(spec, 15);
  ASSERT_TRUE(pair.ok());
  (*pair)->AbsorbF(f);
  (*pair)->AbsorbG(f);
  StatusOr<double> estimate = (*pair)->Estimate();
  ASSERT_TRUE(estimate.ok());
  EXPECT_DOUBLE_EQ(*estimate, 100.0 * 100.0 + 50.0 * 50.0);
}

TEST(CreateJoinEstimatorPairTest, PartitionedAgmsRequiresPlan) {
  EstimatorSpec spec = BaseSpec(EstimatorKind::kPartitionedAgms);
  StatusOr<std::unique_ptr<JoinEstimatorPair>> missing =
      CreateJoinEstimatorPair(spec, 1);
  ASSERT_FALSE(missing.ok());
  EXPECT_EQ(missing.status().code(), StatusCode::kInvalidArgument);

  const FrequencyVector stats =
      stream::ZipfDistribution(spec.domain_size, 1.0).ExpectedFrequencies(5000);
  spec.partition_plan = std::make_shared<sketch::PartitionPlan>(
      *sketch::PlanPartitions(stats, stats, 4, 1024, 5));
  StatusOr<std::unique_ptr<JoinEstimatorPair>> pair =
      CreateJoinEstimatorPair(spec, 1);
  ASSERT_TRUE(pair.ok()) << pair.status();
  EXPECT_STREQ((*pair)->Name(), "partitioned-agms");
  (*pair)->UpdateF(3, 10);
  (*pair)->UpdateG(3, 7);
  StatusOr<double> estimate = (*pair)->Estimate();
  ASSERT_TRUE(estimate.ok());
  EXPECT_DOUBLE_EQ(*estimate, 70.0);
}

TEST(JoinEstimatorPairTest, UpdatesRouteToCorrectSide) {
  StatusOr<std::unique_ptr<JoinEstimatorPair>> pair =
      CreateJoinEstimatorPair(BaseSpec(EstimatorKind::kHashSketch), 17);
  ASSERT_TRUE(pair.ok());
  // Only F gets data; the join with an empty G must be 0.
  (*pair)->UpdateF(3, 100);
  StatusOr<double> estimate = (*pair)->Estimate();
  ASSERT_TRUE(estimate.ok());
  EXPECT_DOUBLE_EQ(*estimate, 0.0);
  // Now G overlaps.
  (*pair)->UpdateG(3, 2);
  estimate = (*pair)->Estimate();
  ASSERT_TRUE(estimate.ok());
  EXPECT_DOUBLE_EQ(*estimate, 200.0);
}

}  // namespace
}  // namespace core
}  // namespace skimjoin
