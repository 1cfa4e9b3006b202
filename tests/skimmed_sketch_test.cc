#include "core/skimmed_sketch.h"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <tuple>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "sketch/agms_sketch.h"
#include "stream/exact.h"
#include "stream/zipf.h"
#include "util/random.h"
#include "util/stats.h"

namespace skimjoin {
namespace core {
namespace {

using stream::FrequencyVector;

SkimmedSketchConfig BaseConfig() {
  SkimmedSketchConfig config;
  config.domain_size = 1u << 10;
  config.num_tables = 5;
  config.num_buckets = 256;
  config.use_dyadic_skim = false;
  return config;
}

SkimmedSketch MustCreate(const SkimmedSketchConfig& config, uint64_t seed) {
  StatusOr<SkimmedSketch> sketch = SkimmedSketch::Create(config, seed);
  EXPECT_TRUE(sketch.ok()) << sketch.status();
  return *std::move(sketch);
}

TEST(SkimmedSketchTest, CreateValidatesConfig) {
  SkimmedSketchConfig config = BaseConfig();
  config.domain_size = 1;
  EXPECT_FALSE(SkimmedSketch::Create(config, 1).ok());

  config = BaseConfig();
  config.use_dyadic_skim = true;
  config.domain_size = 100;  // not a power of two
  EXPECT_FALSE(SkimmedSketch::Create(config, 1).ok());

  config = BaseConfig();
  config.num_tables = 0;
  EXPECT_FALSE(SkimmedSketch::Create(config, 1).ok());

  config = BaseConfig();
  config.num_buckets = 0;
  EXPECT_FALSE(SkimmedSketch::Create(config, 1).ok());

  config = BaseConfig();
  config.threshold_scale = 0.0;
  EXPECT_FALSE(SkimmedSketch::Create(config, 1).ok());

  config = BaseConfig();
  config.min_threshold = 0;
  EXPECT_FALSE(SkimmedSketch::Create(config, 1).ok());

  config = BaseConfig();
  config.recurse_slack = 0.0;
  EXPECT_FALSE(SkimmedSketch::Create(config, 1).ok());
  config.recurse_slack = 1.5;
  EXPECT_FALSE(SkimmedSketch::Create(config, 1).ok());

  // Non-power-of-two domains are fine without dyadic skimming.
  config = BaseConfig();
  config.domain_size = 1000;
  EXPECT_TRUE(SkimmedSketch::Create(config, 1).ok());
}

// NaN fails `<= 0.0` and +inf passes it, yet neither is a usable scale:
// the skim threshold would cast a non-finite double to an integer.
TEST(SkimmedSketchTest, CreateRejectsNonFiniteThresholdScale) {
  for (const double scale : {std::nan(""),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity()}) {
    SkimmedSketchConfig config = BaseConfig();
    config.threshold_scale = scale;
    EXPECT_EQ(SkimmedSketch::Create(config, 1).status().code(),
              StatusCode::kInvalidArgument)
        << scale;
  }
}

TEST(SplitSpaceBudgetTest, RejectsDomainsTooSmallToSplit) {
  for (const bool dyadic : {false, true}) {
    for (const uint64_t domain : {uint64_t{0}, uint64_t{1}}) {
      SkimmedSketchConfig config;
      config.domain_size = domain;
      config.use_dyadic_skim = dyadic;
      EXPECT_EQ(SplitSpaceBudget(4096, &config).code(),
                StatusCode::kInvalidArgument)
          << domain << " " << dyadic;
    }
  }
  SkimmedSketchConfig no_tables;
  no_tables.num_tables = 0;
  EXPECT_EQ(SplitSpaceBudget(4096, &no_tables).code(),
            StatusCode::kInvalidArgument);
}

// The split every caller used before it was shared: space / tables
// buckets without dyadic levels; with them, half the budget to level 0 and
// the other half over log2(domain) levels, at least one bucket each.
TEST(SplitSpaceBudgetTest, SplitIsUnchangedForValidShapes) {
  struct Case {
    uint64_t space, tables, domain;
    bool dyadic;
    uint64_t level0, upper;
  };
  for (const Case& c : std::vector<Case>{{4096, 7, 1u << 10, true, 292, 29},
                                         {4096, 7, 1u << 16, true, 292, 18},
                                         {4096, 7, 1u << 16, false, 585, 0},
                                         {512, 4, 1u << 10, true, 64, 6},
                                         {1000, 5, 2, true, 100, 100},
                                         {8, 7, 1u << 20, true, 1, 1},
                                         {5, 5, 1000, false, 1, 0}}) {
    SkimmedSketchConfig config;
    config.domain_size = c.domain;
    config.num_tables = c.tables;
    config.use_dyadic_skim = c.dyadic;
    config.dyadic_num_buckets = 0;
    ASSERT_TRUE(SplitSpaceBudget(c.space, &config).ok());
    EXPECT_EQ(config.num_buckets, c.level0) << c.space << "/" << c.domain;
    EXPECT_EQ(config.dyadic_num_buckets, c.upper) << c.space << "/" << c.domain;
  }
}

TEST(SkimmedSketchTest, EmptySketchEstimatesZeroJoin) {
  SkimmedSketch f = MustCreate(BaseConfig(), 1);
  SkimmedSketch g = MustCreate(BaseConfig(), 1);
  StatusOr<double> join = SkimmedSketch::EstimateJoinSize(f, g);
  ASSERT_TRUE(join.ok());
  EXPECT_DOUBLE_EQ(*join, 0.0);
}

TEST(SkimmedSketchTest, PointEstimateRecoversIsolatedValues) {
  SkimmedSketch sketch = MustCreate(BaseConfig(), 2);
  sketch.Update(7, 55);
  sketch.Update(600, -12);
  EXPECT_EQ(sketch.EstimatePointFrequency(7), 55);
  EXPECT_EQ(sketch.EstimatePointFrequency(600), -12);
  EXPECT_EQ(sketch.EstimatePointFrequency(8), 0);
}

TEST(SkimmedSketchTest, HeavyHittersFindPlantedValues) {
  SkimmedSketch sketch = MustCreate(BaseConfig(), 3);
  sketch.Update(100, 900);
  sketch.Update(200, 450);
  for (uint64_t v = 0; v < 50; ++v) sketch.Update(v, 1);
  const DenseFrequencies hh = sketch.HeavyHitters(300);
  EXPECT_GT(LookupDense(hh, 100), 800);
  EXPECT_GT(LookupDense(hh, 200), 350);
  for (const auto& [value, freq] : hh) {
    EXPECT_TRUE(value == 100 || value == 200);
  }
}

TEST(SkimmedSketchTest, HeavyHittersDoNotMutateSketch) {
  SkimmedSketch sketch = MustCreate(BaseConfig(), 4);
  sketch.Update(5, 1000);
  (void)sketch.HeavyHitters(10);
  (void)sketch.HeavyHitters(10);
  EXPECT_EQ(sketch.EstimatePointFrequency(5), 1000);
}

TEST(SkimmedSketchTest, SkimThresholdScalesWithStreamMass) {
  SkimmedSketch small = MustCreate(BaseConfig(), 5);
  SkimmedSketch large = MustCreate(BaseConfig(), 5);
  for (uint64_t v = 0; v < 100; ++v) small.Update(v, 2);
  for (uint64_t v = 0; v < 100; ++v) large.Update(v, 200);
  EXPECT_GE(small.SkimThreshold(), 1);
  EXPECT_GT(large.SkimThreshold(), small.SkimThreshold());
}

TEST(SkimmedSketchTest, BreakdownComponentsSumToEstimate) {
  constexpr uint64_t kDomain = 1u << 10;
  const FrequencyVector f =
      stream::ZipfDistribution(kDomain, 1.2).ExpectedFrequencies(30000);
  // Shift of 2 keeps the two streams' dense value sets overlapping, so the
  // exact dense·dense term carries weight.
  const FrequencyVector g =
      stream::ZipfDistribution(kDomain, 1.2, /*shift=*/2)
          .ExpectedFrequencies(30000);
  SkimmedSketch sf = MustCreate(BaseConfig(), 6);
  SkimmedSketch sg = MustCreate(BaseConfig(), 6);
  sf.Absorb(f);
  sg.Absorb(g);
  StatusOr<JoinEstimateBreakdown> breakdown =
      SkimmedSketch::EstimateJoinSizeDetailed(sf, sg);
  ASSERT_TRUE(breakdown.ok());
  StatusOr<double> estimate = SkimmedSketch::EstimateJoinSize(sf, sg);
  ASSERT_TRUE(estimate.ok());
  EXPECT_DOUBLE_EQ(breakdown->Total(), *estimate);
  EXPECT_GT(breakdown->dense_count_f, 0u);
  EXPECT_GT(breakdown->dense_count_g, 0u);
  EXPECT_GT(breakdown->threshold_f, 0);
  // On this skew, dense·dense should carry most of the mass.
  EXPECT_GT(breakdown->dense_dense, 0.5 * *estimate);
}

TEST(SkimmedSketchTest, JoinEstimateAccurateOnSkewedStreams) {
  constexpr uint64_t kDomain = 1u << 10;
  const FrequencyVector f =
      stream::ZipfDistribution(kDomain, 1.5).ExpectedFrequencies(50000);
  const FrequencyVector g =
      stream::ZipfDistribution(kDomain, 1.5, /*shift=*/4)
          .ExpectedFrequencies(50000);
  const double exact = static_cast<double>(stream::JoinSize(f, g));
  SkimmedSketch sf = MustCreate(BaseConfig(), 7);
  SkimmedSketch sg = MustCreate(BaseConfig(), 7);
  sf.Absorb(f);
  sg.Absorb(g);
  StatusOr<double> join = SkimmedSketch::EstimateJoinSize(sf, sg);
  ASSERT_TRUE(join.ok());
  EXPECT_NEAR(*join, exact, 0.15 * exact);
}

TEST(SkimmedSketchTest, EstimationDoesNotMutateSketches) {
  SkimmedSketch f = MustCreate(BaseConfig(), 8);
  SkimmedSketch g = MustCreate(BaseConfig(), 8);
  f.Update(3, 500);
  g.Update(3, 300);
  StatusOr<double> first = SkimmedSketch::EstimateJoinSize(f, g);
  StatusOr<double> second = SkimmedSketch::EstimateJoinSize(f, g);
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(second.ok());
  EXPECT_DOUBLE_EQ(*first, *second);
  EXPECT_DOUBLE_EQ(*first, 150000.0);
}

TEST(SkimmedSketchTest, DeletesCancelExactly) {
  SkimmedSketchConfig config = BaseConfig();
  config.use_dyadic_skim = true;
  SkimmedSketch f = MustCreate(config, 9);
  SkimmedSketch g = MustCreate(config, 9);
  for (uint64_t v = 0; v < 200; ++v) {
    f.Update(v, 5);
    g.Update(v, 5);
  }
  for (uint64_t v = 0; v < 200; ++v) {
    f.Update(v, -5);
    g.Update(v, -5);
  }
  StatusOr<double> join = SkimmedSketch::EstimateJoinSize(f, g);
  ASSERT_TRUE(join.ok());
  EXPECT_DOUBLE_EQ(*join, 0.0);
}

TEST(SkimmedSketchTest, SlidingWindowViaDeletesTracksRecentJoin) {
  // Insert phase A, then delete it while inserting phase B; the estimate
  // should reflect only phase B.
  SkimmedSketch f = MustCreate(BaseConfig(), 10);
  SkimmedSketch g = MustCreate(BaseConfig(), 10);
  for (int i = 0; i < 400; ++i) {
    f.Update(1, 1);
    g.Update(1, 1);
  }
  for (int i = 0; i < 400; ++i) {
    f.Update(1, -1);
    g.Update(1, -1);
    f.Update(2, 1);
    g.Update(2, 1);
  }
  StatusOr<double> join = SkimmedSketch::EstimateJoinSize(f, g);
  ASSERT_TRUE(join.ok());
  EXPECT_NEAR(*join, 400.0 * 400.0, 0.05 * 400.0 * 400.0);
}

TEST(SkimmedSketchTest, MergeEqualsConcatenatedStream) {
  SkimmedSketch part1 = MustCreate(BaseConfig(), 11);
  SkimmedSketch part2 = MustCreate(BaseConfig(), 11);
  SkimmedSketch whole = MustCreate(BaseConfig(), 11);
  part1.Update(5, 100);
  whole.Update(5, 100);
  part2.Update(5, 50);
  part2.Update(9, 70);
  whole.Update(5, 50);
  whole.Update(9, 70);
  part1.Merge(part2);
  EXPECT_EQ(part1.EstimatePointFrequency(5), whole.EstimatePointFrequency(5));
  EXPECT_EQ(part1.EstimatePointFrequency(9), whole.EstimatePointFrequency(9));
}

TEST(SkimmedSketchTest, IncompatibleSketchesRejected) {
  SkimmedSketch f = MustCreate(BaseConfig(), 1);
  SkimmedSketch other_seed = MustCreate(BaseConfig(), 2);
  SkimmedSketchConfig narrow = BaseConfig();
  narrow.num_buckets = 128;
  SkimmedSketch other_shape = MustCreate(narrow, 1);
  EXPECT_FALSE(SkimmedSketch::EstimateJoinSize(f, other_seed).ok());
  EXPECT_FALSE(SkimmedSketch::EstimateJoinSize(f, other_shape).ok());
}

TEST(SkimmedSketchTest, DyadicAndNaiveSkimAgreeOnEstimates) {
  SkimmedSketchConfig naive_config = BaseConfig();
  SkimmedSketchConfig dyadic_config = BaseConfig();
  dyadic_config.use_dyadic_skim = true;
  dyadic_config.recurse_slack = 0.3;

  constexpr uint64_t kDomain = 1u << 10;
  const FrequencyVector f =
      stream::ZipfDistribution(kDomain, 1.4).ExpectedFrequencies(30000);
  const FrequencyVector g =
      stream::ZipfDistribution(kDomain, 1.4, /*shift=*/4)
          .ExpectedFrequencies(30000);

  SkimmedSketch nf = MustCreate(naive_config, 12);
  SkimmedSketch ng = MustCreate(naive_config, 12);
  SkimmedSketch df = MustCreate(dyadic_config, 12);
  SkimmedSketch dg = MustCreate(dyadic_config, 12);
  nf.Absorb(f);
  ng.Absorb(g);
  df.Absorb(f);
  dg.Absorb(g);

  const double exact = static_cast<double>(stream::JoinSize(f, g));
  StatusOr<double> naive_join = SkimmedSketch::EstimateJoinSize(nf, ng);
  StatusOr<double> dyadic_join = SkimmedSketch::EstimateJoinSize(df, dg);
  ASSERT_TRUE(naive_join.ok());
  ASSERT_TRUE(dyadic_join.ok());
  EXPECT_NEAR(*naive_join, exact, 0.2 * exact);
  EXPECT_NEAR(*dyadic_join, exact, 0.2 * exact);
}

TEST(SkimmedSketchTest, TotalCountersAccountsForDyadicLevels) {
  SkimmedSketchConfig config = BaseConfig();
  EXPECT_EQ(MustCreate(config, 13).TotalCounters(), 5u * 256);
  config.use_dyadic_skim = true;
  config.dyadic_num_buckets = 16;
  const SkimmedSketch with_dyadic = MustCreate(config, 13);
  EXPECT_GT(with_dyadic.TotalCounters(), 5u * 256);
}

TEST(SkimmedSketchTest, SelfJoinEstimateTracksExact) {
  constexpr uint64_t kDomain = 1u << 10;
  const FrequencyVector f =
      stream::ZipfDistribution(kDomain, 1.3).ExpectedFrequencies(40000);
  SkimmedSketch sketch = MustCreate(BaseConfig(), 14);
  sketch.Absorb(f);
  const double exact = static_cast<double>(f.SelfJoinSize());
  EXPECT_NEAR(sketch.EstimateSelfJoinSize(), exact, 0.15 * exact);
}

TEST(SkimmedSketchTest, UpdateOutsideDomainDropsInsteadOfAborting) {
  SkimmedSketch sketch = MustCreate(BaseConfig(), 15);
  sketch.Update(3, 1);
  const int64_t before = sketch.EstimatePointFrequency(3);
  // An out-of-domain value is stream data, not an internal invariant: it
  // must be dropped and counted, never crash the process.
  sketch.Update(1u << 10, 1);
  sketch.Update(UINT64_MAX, 5);
  EXPECT_EQ(sketch.dropped_updates(), 2u);
  EXPECT_EQ(sketch.EstimatePointFrequency(3), before);
}

// The paper's headline property: at equal space, skimmed sketches beat
// basic AGMS on skewed data. Compared via median ratio error over several
// seeds to keep the test statistically stable.
TEST(SkimmedSketchVsAgmsTest, SkimmedBeatsAgmsOnSkewedData) {
  constexpr uint64_t kDomain = 1u << 10;
  constexpr uint64_t kSpace = 1280;  // counters per stream
  const FrequencyVector f =
      stream::ZipfDistribution(kDomain, 1.5).ExpectedFrequencies(100000);
  const FrequencyVector g =
      stream::ZipfDistribution(kDomain, 1.5, /*shift=*/8)
          .ExpectedFrequencies(100000);
  const double exact = static_cast<double>(stream::JoinSize(f, g));

  auto ratio_error = [&](double estimate) {
    if (estimate <= 0) return 10.0;
    const double ratio = std::max(estimate, exact) / std::min(estimate, exact);
    return std::min(ratio - 1.0, 10.0);
  };

  std::vector<double> agms_errors;
  std::vector<double> skim_errors;
  for (uint64_t seed = 100; seed < 107; ++seed) {
    sketch::AgmsConfig agms_config{kSpace / 5, 5};
    auto af = *sketch::AgmsSketch::Create(agms_config, seed);
    auto ag = *sketch::AgmsSketch::Create(agms_config, seed);
    af.Absorb(f);
    ag.Absorb(g);
    agms_errors.push_back(
        ratio_error(*sketch::AgmsSketch::EstimateJoinSize(af, ag)));

    SkimmedSketchConfig skim_config = BaseConfig();
    skim_config.num_tables = 5;
    skim_config.num_buckets = kSpace / 5;
    SkimmedSketch sf = MustCreate(skim_config, seed);
    SkimmedSketch sg = MustCreate(skim_config, seed);
    sf.Absorb(f);
    sg.Absorb(g);
    skim_errors.push_back(
        ratio_error(*SkimmedSketch::EstimateJoinSize(sf, sg)));
  }
  EXPECT_LT(Median(skim_errors), Median(agms_errors));
}

// Parameterized sweep: the estimator stays accurate across skews and
// shifts (generous envelopes keep the test deterministic-stable).
class SkimmedAccuracyTest
    : public ::testing::TestWithParam<std::tuple<double, uint64_t>> {};

TEST_P(SkimmedAccuracyTest, EstimateWithinEnvelope) {
  const double z = std::get<0>(GetParam());
  const uint64_t shift = std::get<1>(GetParam());
  constexpr uint64_t kDomain = 1u << 10;
  const FrequencyVector f =
      stream::ZipfDistribution(kDomain, z).ExpectedFrequencies(50000);
  const FrequencyVector g =
      stream::ZipfDistribution(kDomain, z, shift).ExpectedFrequencies(50000);
  const double exact = static_cast<double>(stream::JoinSize(f, g));
  ASSERT_GT(exact, 0.0);

  SkimmedSketch sf = MustCreate(BaseConfig(), 42);
  SkimmedSketch sg = MustCreate(BaseConfig(), 42);
  sf.Absorb(f);
  sg.Absorb(g);
  StatusOr<double> join = SkimmedSketch::EstimateJoinSize(sf, sg);
  ASSERT_TRUE(join.ok());
  // Envelope: skimming caps residuals near T ≈ 2·sqrt(F2/b); allow several
  // multiples of the residual-noise scale plus a relative slack.
  const double envelope = 0.35 * exact + 8.0 * std::sqrt(exact) + 500.0;
  EXPECT_NEAR(*join, exact, envelope);
}

INSTANTIATE_TEST_SUITE_P(
    SkewShift, SkimmedAccuracyTest,
    ::testing::Combine(::testing::Values(0.8, 1.0, 1.2, 1.5),
                       ::testing::Values(uint64_t{0}, uint64_t{8},
                                         uint64_t{64})));

}  // namespace
}  // namespace core
}  // namespace skimjoin
