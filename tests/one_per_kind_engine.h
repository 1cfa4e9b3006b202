// The one-per-kind engine shape the checkpoint golden manifest and the
// synopsis-record fuzz sweep share.

#ifndef SKIMJOIN_TESTS_ONE_PER_KIND_ENGINE_H_
#define SKIMJOIN_TESTS_ONE_PER_KIND_ENGINE_H_

#include <cmath>
#include <cstdint>
#include <memory>

#include "query/engine.h"
#include "sketch/partitioned_agms.h"
#include "stream/frequency_vector.h"
#include "util/logging.h"

namespace skimjoin {
namespace query {

// One query of every kind (plus the two unsupported join methods), with
// predicates, a SUM input, a name that needs escaping, and doubles with no
// short decimal form.
inline void BuildOnePerKindEngine(Engine* engine) {
  SKIMJOIN_CHECK_OK(engine->RegisterStream({"left", 1024}).status());
  SKIMJOIN_CHECK_OK(engine->RegisterStream({"right side%", 1024}).status());
  SKIMJOIN_CHECK_OK(engine->RegisterRelation({"r0", 1, 64}).status());
  SKIMJOIN_CHECK_OK(engine->RegisterRelation({"r1", 2, 64}).status());
  SKIMJOIN_CHECK_OK(engine->RegisterRelation({"r2", 1, 64}).status());
  JoinQuerySpec join;
  join.left_stream = "left";
  join.right_stream = "right side%";
  join.estimator.kind = core::EstimatorKind::kSkimmedSketch;
  join.estimator.space_counters = 512;
  join.estimator.num_tables = 4;
  join.estimator.threshold_scale = 0.1;
  join.estimator.recurse_slack = std::nextafter(1.0, 0.0);
  join.estimator.skim_margin = 5e-324;
  join.estimator.skimmed_use_dyadic = true;
  join.right_input = AggregateInput::kMeasure;
  join.left_predicate = RangePredicate{3, 900};
  SKIMJOIN_CHECK_OK(engine->AddJoinQuery(join, 101).status());
  SelfJoinQuerySpec self_join;
  self_join.stream = "left";
  self_join.estimator.kind = core::EstimatorKind::kAgms;
  self_join.estimator.space_counters = 100;
  SKIMJOIN_CHECK_OK(engine->AddSelfJoinQuery(self_join, 102).status());
  JoinQuerySpec sampling;
  sampling.left_stream = "left";
  sampling.right_stream = "left";
  sampling.estimator.kind = core::EstimatorKind::kSampling;
  sampling.estimator.space_counters = 64;
  SKIMJOIN_CHECK_OK(engine->AddJoinQuery(sampling, 103).status());
  stream::FrequencyVector stats(1024);
  for (uint64_t v = 0; v < 1024; ++v) stats.Add(v, 1 + (v % 3));
  JoinQuerySpec partitioned;
  partitioned.left_stream = "left";
  partitioned.right_stream = "right side%";
  partitioned.estimator.kind = core::EstimatorKind::kPartitionedAgms;
  partitioned.estimator.partition_plan =
      std::make_shared<sketch::PartitionPlan>(
          *sketch::PlanPartitions(stats, stats, 4, 256, 4));
  SKIMJOIN_CHECK_OK(engine->AddJoinQuery(partitioned, 104).status());
  FrequencyQuerySpec frequency;
  frequency.stream = "left";
  frequency.space_counters = 1000;
  frequency.num_tables = 5;
  frequency.use_dyadic = true;
  frequency.predicate = RangePredicate{0, 511};
  SKIMJOIN_CHECK_OK(engine->AddFrequencyQuery(frequency, 105).status());
  DistinctCountQuerySpec distinct;
  distinct.stream = "right side%";
  distinct.num_maps = 16;
  SKIMJOIN_CHECK_OK(engine->AddDistinctCountQuery(distinct, 106).status());
  TopKQuerySpec topk;
  topk.stream = "left";
  topk.k = 4;
  topk.space_counters = 128;
  topk.num_tables = 4;
  SKIMJOIN_CHECK_OK(engine->AddTopKQuery(topk, 107).status());
  QuantileQuerySpec quantile;
  quantile.stream = "right side%";
  quantile.epsilon = 0.1;
  quantile.predicate = RangePredicate{1, 1000};
  SKIMJOIN_CHECK_OK(engine->AddQuantileQuery(quantile).status());
  RangeSumQuerySpec range_sum;
  range_sum.stream = "left";
  range_sum.coefficient_budget = 32;
  SKIMJOIN_CHECK_OK(engine->AddRangeSumQuery(range_sum).status());
  ChainJoinQuerySpec chain;
  chain.relations = {"r0", "r1", "r2"};
  chain.method = ChainJoinQuerySpec::Method::kAgmsGrid;
  chain.num_means = 8;
  chain.num_medians = 3;
  SKIMJOIN_CHECK_OK(engine->AddChainJoinQuery(chain, 108).status());
  for (uint64_t v = 0; v < 40; ++v) {
    SKIMJOIN_CHECK_OK(
        engine->Update("left", StreamUpdate{v * 7 % 1024, 1, int64_t(v)}));
    SKIMJOIN_CHECK_OK(
        engine->Update("right side%", StreamUpdate{v * 5 % 1024, 1, 2}));
  }
  SKIMJOIN_CHECK_OK(engine->UpdateRelation("r1", {1, 2}, 1));
}

}  // namespace query
}  // namespace skimjoin

#endif  // SKIMJOIN_TESTS_ONE_PER_KIND_ENGINE_H_
