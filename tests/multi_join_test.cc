#include "query/multi_join.h"

#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "util/random.h"

namespace skimjoin {
namespace query {
namespace {

MultiJoinConfig ChainOfThree() {
  // R0(A0) ⋈ R1(A0, A1) ⋈ R2(A1).
  MultiJoinConfig config;
  config.num_means = 64;
  config.num_medians = 5;
  config.relation_attributes = {{0}, {0, 1}, {1}};
  return config;
}

MultiJoinEstimator MustCreate(const MultiJoinConfig& config, uint64_t seed) {
  StatusOr<MultiJoinEstimator> est = MultiJoinEstimator::Create(config, seed);
  EXPECT_TRUE(est.ok()) << est.status();
  return *std::move(est);
}

TEST(MultiJoinTest, CreateValidatesConfig) {
  MultiJoinConfig config = ChainOfThree();
  config.num_means = 0;
  EXPECT_FALSE(MultiJoinEstimator::Create(config, 1).ok());

  config = ChainOfThree();
  config.relation_attributes = {{0}};
  EXPECT_FALSE(MultiJoinEstimator::Create(config, 1).ok());

  config = ChainOfThree();
  config.relation_attributes = {{0}, {0, 1}, {1}, {1}};  // A1 used 3 times
  EXPECT_FALSE(MultiJoinEstimator::Create(config, 1).ok());

  config = ChainOfThree();
  config.relation_attributes = {{0}, {}, {0}};  // empty relation
  EXPECT_FALSE(MultiJoinEstimator::Create(config, 1).ok());

  config = ChainOfThree();
  config.relation_attributes = {{0}, {0, 7}, {7}};  // ids 1..6 missing
  EXPECT_FALSE(MultiJoinEstimator::Create(config, 1).ok());

  EXPECT_TRUE(MultiJoinEstimator::Create(ChainOfThree(), 1).ok());
}

TEST(MultiJoinTest, UpdateValidatesRelationAndArity) {
  MultiJoinEstimator est = MustCreate(ChainOfThree(), 2);
  EXPECT_FALSE(est.Update(3, {1}, 1).ok());        // unknown relation
  EXPECT_FALSE(est.Update(0, {1, 2}, 1).ok());     // arity mismatch
  EXPECT_FALSE(est.Update(1, {1}, 1).ok());        // arity mismatch
  EXPECT_TRUE(est.Update(0, {1}, 1).ok());
  EXPECT_TRUE(est.Update(1, {1, 2}, 1).ok());
  EXPECT_TRUE(est.Update(2, {2}, 1).ok());
}

TEST(MultiJoinTest, EmptyEstimateIsZero) {
  MultiJoinEstimator est = MustCreate(ChainOfThree(), 3);
  EXPECT_DOUBLE_EQ(est.Estimate(), 0.0);
}

TEST(MultiJoinTest, SingleMatchingTupleChain) {
  // R0 = {(7)}, R1 = {(7, 9)}, R2 = {(9)}: join size 1. With a single
  // tuple per relation every atomic sketch is ±1 and the product is
  // ξ0(7)²·ξ1(9)² = 1 exactly.
  MultiJoinEstimator est = MustCreate(ChainOfThree(), 4);
  ASSERT_TRUE(est.Update(0, {7}, 1).ok());
  ASSERT_TRUE(est.Update(1, {7, 9}, 1).ok());
  ASSERT_TRUE(est.Update(2, {9}, 1).ok());
  EXPECT_DOUBLE_EQ(est.Estimate(), 1.0);
}

TEST(MultiJoinTest, ScalesWithMultiplicities) {
  MultiJoinEstimator est = MustCreate(ChainOfThree(), 5);
  ASSERT_TRUE(est.Update(0, {7}, 4).ok());
  ASSERT_TRUE(est.Update(1, {7, 9}, 3).ok());
  ASSERT_TRUE(est.Update(2, {9}, 2).ok());
  EXPECT_DOUBLE_EQ(est.Estimate(), 24.0);
}

TEST(MultiJoinTest, DeletesCancel) {
  MultiJoinEstimator est = MustCreate(ChainOfThree(), 6);
  ASSERT_TRUE(est.Update(0, {7}, 1).ok());
  ASSERT_TRUE(est.Update(1, {7, 9}, 1).ok());
  ASSERT_TRUE(est.Update(2, {9}, 1).ok());
  ASSERT_TRUE(est.Update(1, {7, 9}, -1).ok());  // retract the middle tuple
  EXPECT_DOUBLE_EQ(est.Estimate(), 0.0);
}

// Unbiasedness: average over independent seeds approaches the exact chain
// join size on a small random instance.
TEST(MultiJoinTest, UnbiasedAcrossSeedsOnRandomInstance) {
  constexpr uint64_t kDomain = 16;
  // Build small relations with explicit frequency tables.
  std::vector<int64_t> r0(kDomain, 0);
  std::vector<std::vector<int64_t>> r1(kDomain,
                                       std::vector<int64_t>(kDomain, 0));
  std::vector<int64_t> r2(kDomain, 0);
  Rng rng(7);
  for (int i = 0; i < 60; ++i) r0[rng.NextUint64Below(kDomain)] += 1;
  for (int i = 0; i < 60; ++i) {
    r1[rng.NextUint64Below(kDomain)][rng.NextUint64Below(kDomain)] += 1;
  }
  for (int i = 0; i < 60; ++i) r2[rng.NextUint64Below(kDomain)] += 1;

  double exact = 0.0;
  for (uint64_t u = 0; u < kDomain; ++u) {
    for (uint64_t v = 0; v < kDomain; ++v) {
      exact += static_cast<double>(r0[u]) * static_cast<double>(r1[u][v]) *
               static_cast<double>(r2[v]);
    }
  }
  ASSERT_GT(exact, 0.0);

  MultiJoinConfig config = ChainOfThree();
  config.num_means = 1;
  config.num_medians = 1;
  double sum = 0.0;
  constexpr int kSeeds = 400;
  for (int seed = 0; seed < kSeeds; ++seed) {
    MultiJoinEstimator est =
        MustCreate(config, static_cast<uint64_t>(seed) + 1000);
    for (uint64_t u = 0; u < kDomain; ++u) {
      if (r0[u] != 0) {
        ASSERT_TRUE(est.Update(0, {u}, r0[u]).ok());
      }
      for (uint64_t v = 0; v < kDomain; ++v) {
        if (r1[u][v] != 0) {
          ASSERT_TRUE(est.Update(1, {u, v}, r1[u][v]).ok());
        }
      }
    }
    for (uint64_t v = 0; v < kDomain; ++v) {
      if (r2[v] != 0) {
        ASSERT_TRUE(est.Update(2, {v}, r2[v]).ok());
      }
    }
    sum += est.Estimate();
  }
  EXPECT_NEAR(sum / kSeeds, exact, 0.35 * exact);
}

TEST(MultiJoinTest, TwoRelationCaseMatchesBinaryJoinSemantics) {
  // R0(A0) ⋈ R1(A0): the estimator reduces to the AGMS binary join.
  MultiJoinConfig config;
  config.num_means = 32;
  config.num_medians = 5;
  config.relation_attributes = {{0}, {0}};
  MultiJoinEstimator est = MustCreate(config, 8);
  ASSERT_TRUE(est.Update(0, {3}, 10).ok());
  ASSERT_TRUE(est.Update(1, {3}, 7).ok());
  EXPECT_DOUBLE_EQ(est.Estimate(), 70.0);
}

TEST(MultiJoinTest, FourRelationChain) {
  MultiJoinConfig config;
  config.num_means = 32;
  config.num_medians = 5;
  config.relation_attributes = {{0}, {0, 1}, {1, 2}, {2}};
  MultiJoinEstimator est = MustCreate(config, 9);
  ASSERT_TRUE(est.Update(0, {1}, 2).ok());
  ASSERT_TRUE(est.Update(1, {1, 2}, 3).ok());
  ASSERT_TRUE(est.Update(2, {2, 3}, 5).ok());
  ASSERT_TRUE(est.Update(3, {3}, 7).ok());
  EXPECT_DOUBLE_EQ(est.Estimate(), 2.0 * 3 * 5 * 7);
}

TEST(MultiJoinTest, RecordClaimingMoreRelationsThanListsIsRefused) {
  // A 1x1 grid whose header claims 2^26 relations, the most the counter
  // cap allows, and carries no attribute list: refused at the first
  // missing list, before any per-relation allocation.
  std::stringstream in("skimjoin.multi_join v1\n1 1 7 67108864\n");
  StatusOr<MultiJoinEstimator> result = MultiJoinEstimator::DeserializeFrom(in);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(MultiJoinTest, RecordWhoseSignFamiliesExceedTheCapIsRefused) {
  // Each grid's counters fit the cap (2^25 cells x 2 relations = 2^26), but
  // the constructor would also build one sign family per attribute and
  // cell: 64 attributes x 2^25 cells. Refused by the header check, before
  // any family is built.
  std::string wide = "skimjoin.multi_join v1\n33554432 1 7 2\n";
  for (int relation = 0; relation < 2; ++relation) {
    wide += "64";
    for (int a = 0; a < 64; ++a) wide += ' ' + std::to_string(a);
    wide += '\n';
  }
  // The three-relation chain at the most cells its counter grids allow:
  // its two attributes' families would push the record past the cap.
  const std::string chain =
      "skimjoin.multi_join v1\n22369621 1 7 3\n1 0\n2 0 1\n1 1\n";
  for (const std::string& record : {wide, chain}) {
    std::stringstream in(record);
    StatusOr<MultiJoinEstimator> result =
        MultiJoinEstimator::DeserializeFrom(in);
    ASSERT_FALSE(result.ok()) << record.substr(0, 40);
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
    EXPECT_NE(result.status().message().find("record header"),
              std::string::npos)
        << result.status();
  }
}

}  // namespace
}  // namespace query
}  // namespace skimjoin
