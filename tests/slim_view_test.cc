// Differential proof that the slim half of the two-stage read path
// (DESIGN.md §11) answers bit-identically to the fat synopsis it was
// derived from — point estimates and join estimates, whichever update
// kernel built the fat counters — plus the epoch-gating contract of Refresh
// and the precomputed-skim join path.

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/skimmed_sketch.h"
#include "gtest/gtest.h"
#include "sketch/count_min_sketch.h"
#include "sketch/hash_sketch.h"
#include "sketch/kernel.h"
#include "sketch/slim_view.h"
#include "stream/stream_element.h"
#include "util/random.h"

namespace skimjoin {
namespace {

using sketch::Kernel;
using sketch::SlimView;
using stream::StreamElement;

/// Both update kernels. The slim view must be bit-identical to the fat
/// answer whichever kernel built the fat counters.
std::vector<std::pair<std::string, Kernel>> KernelModes() {
  return {{"reference", Kernel::kReference}, {"fast", Kernel::kFast}};
}

/// Skewed workload with signed weights (deletes included) so counters go
/// negative too — the slim view must pack those faithfully.
std::vector<StreamElement> MakeWorkload(Rng* rng, uint64_t domain,
                                        uint64_t num_elements) {
  std::vector<StreamElement> elements;
  elements.reserve(num_elements);
  const uint64_t hot_set = 1 + rng->NextUint64Below(16);
  for (uint64_t i = 0; i < num_elements; ++i) {
    const uint64_t value = (rng->NextUint64Below(2) == 0)
                               ? rng->NextUint64Below(hot_set)
                               : rng->NextUint64Below(domain);
    int64_t weight = 1;
    const uint64_t wroll = rng->NextUint64Below(10);
    if (wroll < 2) {
      weight = -1;
    } else if (wroll < 4) {
      weight = 1 + static_cast<int64_t>(rng->NextUint64Below(1000));
    }
    elements.push_back({value, weight});
  }
  return elements;
}

TEST(SlimViewTest, HashSketchPointAndJoinBitIdenticalAcrossKernelModes) {
  Rng rng(1101);
  for (int trial = 0; trial < 4; ++trial) {
    sketch::HashSketchConfig config;
    config.num_tables = 1 + rng.NextUint64Below(9);
    config.num_buckets = 1 + rng.NextUint64Below(700);
    const uint64_t seed = rng.NextUint64();
    const uint64_t domain = 1 + rng.NextUint64Below(1u << 14);
    const auto elements_f = MakeWorkload(&rng, domain, 3000);
    const auto elements_g = MakeWorkload(&rng, domain, 3000);
    for (const auto& [name, kernel] : KernelModes()) {
      const std::string context = "trial " + std::to_string(trial) +
                                  " mode " + name;
      auto f = sketch::HashSketch::Create(config, seed);
      auto g = sketch::HashSketch::Create(config, seed);
      ASSERT_TRUE(f.ok() && g.ok()) << context;
      f->SetKernel(kernel);
      g->SetKernel(kernel);
      f->UpdateBatch(std::span<const StreamElement>(elements_f));
      g->UpdateBatch(std::span<const StreamElement>(elements_g));

      const SlimView slim_f(*f);
      const SlimView slim_g(*g);
      for (uint64_t probe = 0; probe < 64; ++probe) {
        const uint64_t value = rng.NextUint64Below(domain);
        ASSERT_EQ(slim_f.PointEstimate(value), f->PointEstimate(value))
            << context << " value " << value;
      }
      const auto fat_join = sketch::HashSketch::EstimateJoinSize(*f, *g);
      const auto slim_join = SlimView::EstimateJoinSize(slim_f, slim_g);
      ASSERT_TRUE(fat_join.ok() && slim_join.ok()) << context;
      // EXPECT_EQ on doubles: bit-identical, not just close.
      ASSERT_EQ(*slim_join, *fat_join) << context;
    }
  }
}

TEST(SlimViewTest, CountMinPointAndJoinBitIdenticalAcrossKernelModes) {
  Rng rng(2202);
  for (int trial = 0; trial < 4; ++trial) {
    sketch::CountMinConfig config;
    config.num_tables = 1 + rng.NextUint64Below(7);
    config.num_buckets = 1 + rng.NextUint64Below(500);
    const uint64_t seed = rng.NextUint64();
    const uint64_t domain = 1 + rng.NextUint64Below(1u << 14);
    const auto elements_f = MakeWorkload(&rng, domain, 3000);
    const auto elements_g = MakeWorkload(&rng, domain, 3000);
    for (const auto& [name, kernel] : KernelModes()) {
      const std::string context = "trial " + std::to_string(trial) +
                                  " mode " + name;
      auto f = sketch::CountMinSketch::Create(config, seed);
      auto g = sketch::CountMinSketch::Create(config, seed);
      ASSERT_TRUE(f.ok() && g.ok()) << context;
      f->SetKernel(kernel);
      g->SetKernel(kernel);
      f->UpdateBatch(std::span<const StreamElement>(elements_f));
      g->UpdateBatch(std::span<const StreamElement>(elements_g));

      const SlimView slim_f(*f);
      const SlimView slim_g(*g);
      for (uint64_t probe = 0; probe < 64; ++probe) {
        const uint64_t value = rng.NextUint64Below(domain);
        ASSERT_EQ(slim_f.PointEstimate(value), f->PointEstimate(value))
            << context << " value " << value;
      }
      const auto fat_join = sketch::CountMinSketch::EstimateJoinSize(*f, *g);
      const auto slim_join = SlimView::EstimateJoinSize(slim_f, slim_g);
      ASSERT_TRUE(fat_join.ok() && slim_join.ok()) << context;
      ASSERT_EQ(*slim_join, *fat_join) << context;
    }
  }
}

TEST(SlimViewTest, RefreshIsEpochGated) {
  sketch::HashSketchConfig config;
  config.num_tables = 5;
  config.num_buckets = 64;
  auto fat = sketch::HashSketch::Create(config, 7);
  ASSERT_TRUE(fat.ok());
  fat->Update({3, 10});

  SlimView view(*fat);
  EXPECT_EQ(view.refresh_count(), 1u);  // the constructor's initial pass
  EXPECT_TRUE(view.FreshFor(fat->update_epoch()));

  // No fat mutation since the constructor: Refresh must be a no-op.
  EXPECT_FALSE(view.Refresh(*fat));
  EXPECT_EQ(view.refresh_count(), 1u);

  // One update advances the epoch; exactly one refresh pass runs, and the
  // view answers the post-update frequency.
  fat->Update({3, 5});
  EXPECT_FALSE(view.FreshFor(fat->update_epoch()));
  EXPECT_TRUE(view.Refresh(*fat));
  EXPECT_FALSE(view.Refresh(*fat));
  EXPECT_EQ(view.refresh_count(), 2u);
  EXPECT_EQ(view.PointEstimate(3), fat->PointEstimate(3));
}

TEST(SlimViewTest, CopyKeepsAnsweringAtItsEpoch) {
  sketch::CountMinConfig config;
  config.num_tables = 3;
  config.num_buckets = 32;
  auto fat = sketch::CountMinSketch::Create(config, 11);
  ASSERT_TRUE(fat.ok());
  fat->Update({5, 100});

  SlimView live(*fat);
  const SlimView snapshot = live;  // read-replica style frozen copy
  const int64_t before = fat->PointEstimate(5);

  fat->Update({5, 23});
  live.Refresh(*fat);
  EXPECT_EQ(live.PointEstimate(5), fat->PointEstimate(5));
  EXPECT_FALSE(snapshot.FreshFor(fat->update_epoch()));
  EXPECT_EQ(snapshot.PointEstimate(5), before);
}

TEST(SlimViewTest, WideCountersFallBackTo64BitsAndStayBitIdentical) {
  sketch::CountMinConfig config;
  config.num_tables = 4;
  config.num_buckets = 16;
  auto fat = sketch::CountMinSketch::Create(config, 13);
  ASSERT_TRUE(fat.ok());
  fat->Update({1, 3});
  SlimView view(*fat);
  EXPECT_TRUE(view.narrowed());  // tiny counters pack into 32 bits

  // Push one counter past int32 range: the view must widen, and both point
  // and (self-)join answers must still match the fat sketch exactly.
  const int64_t big = int64_t{1} << 40;
  fat->Update({1, big});
  ASSERT_TRUE(view.Refresh(*fat));
  EXPECT_FALSE(view.narrowed());
  for (uint64_t value = 0; value < 16; ++value) {
    EXPECT_EQ(view.PointEstimate(value), fat->PointEstimate(value));
  }
  const auto fat_join = sketch::CountMinSketch::EstimateJoinSize(*fat, *fat);
  const auto slim_join = SlimView::EstimateJoinSize(view, view);
  ASSERT_TRUE(fat_join.ok() && slim_join.ok());
  EXPECT_EQ(*slim_join, *fat_join);
}

TEST(SlimViewTest, JoinRejectsIncompatibleViews) {
  sketch::HashSketchConfig hash_config;
  hash_config.num_tables = 3;
  hash_config.num_buckets = 32;
  auto hash_a = sketch::HashSketch::Create(hash_config, 1);
  auto hash_b = sketch::HashSketch::Create(hash_config, 2);  // different seed
  sketch::CountMinConfig cm_config;
  cm_config.num_tables = 3;
  cm_config.num_buckets = 32;
  auto cm = sketch::CountMinSketch::Create(cm_config, 1);
  ASSERT_TRUE(hash_a.ok() && hash_b.ok() && cm.ok());

  const SlimView view_a(*hash_a);
  const SlimView view_b(*hash_b);
  const SlimView view_cm(*cm);
  EXPECT_EQ(SlimView::EstimateJoinSize(view_a, view_b).status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(SlimView::EstimateJoinSize(view_a, view_cm).status().code(),
            StatusCode::kInvalidArgument);
}

TEST(SlimViewTest, SkimmedPrecomputedSkimsMatchFatJoinBitIdentically) {
  Rng rng(3303);
  for (int trial = 0; trial < 4; ++trial) {
    core::SkimmedSketchConfig config;
    config.domain_size = uint64_t{1} << (6 + rng.NextUint64Below(6));
    config.num_tables = 1 + rng.NextUint64Below(5);
    config.num_buckets = 1 + rng.NextUint64Below(200);
    config.use_dyadic_skim = (trial % 2 == 0);
    const uint64_t seed = rng.NextUint64();
    const auto elements_f = MakeWorkload(&rng, config.domain_size, 2000);
    const auto elements_g = MakeWorkload(&rng, config.domain_size, 2000);
    for (const auto& [name, kernel] : KernelModes()) {
      const std::string context = "trial " + std::to_string(trial) +
                                  " mode " + name;
      auto f = core::SkimmedSketch::Create(config, seed);
      auto g = core::SkimmedSketch::Create(config, seed);
      ASSERT_TRUE(f.ok() && g.ok()) << context;
      f->SetKernel(kernel);
      g->SetKernel(kernel);
      f->UpdateBatch(std::span<const StreamElement>(elements_f));
      g->UpdateBatch(std::span<const StreamElement>(elements_g));

      // Skims are computed independently per side, so the precomputed-skim
      // estimate must be bit-identical to the fat-pair estimate.
      const core::SkimmedSketch::SkimOutput skim_f = f->Skim();
      const core::SkimmedSketch::SkimOutput skim_g = g->Skim();
      const auto from_skims =
          core::SkimmedSketch::EstimateJoinSizeFromSkims(skim_f, skim_g);
      const auto from_fat = core::SkimmedSketch::EstimateJoinSize(*f, *g);
      ASSERT_TRUE(from_skims.ok() && from_fat.ok()) << context;
      ASSERT_EQ(*from_skims, *from_fat) << context;
    }
  }
}

TEST(SlimViewTest, SkimmedSketchEpochFollowsMutations) {
  core::SkimmedSketchConfig config;
  config.domain_size = 1 << 8;
  config.num_tables = 3;
  config.num_buckets = 32;
  auto sketch = core::SkimmedSketch::Create(config, 5);
  ASSERT_TRUE(sketch.ok());
  const uint64_t before = sketch->update_epoch();
  sketch->Update({1, 1});
  EXPECT_NE(sketch->update_epoch(), before);
  const uint64_t after_update = sketch->update_epoch();
  sketch->Reset();
  EXPECT_NE(sketch->update_epoch(), after_update);
}

}  // namespace
}  // namespace skimjoin
