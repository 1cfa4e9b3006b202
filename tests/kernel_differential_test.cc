// Differential proof that the fast update kernel (fastmod, plan cache,
// blocked batches, SIMD lanes — DESIGN.md §10) is bit-identical to the
// scalar reference kernel: same counters, same serialized bytes, for every
// sketch family, across randomized shapes, seeds, batch splits, deletes
// and out-of-domain values. CI runs it both with the SIMD lanes dispatched
// and under SKIMJOIN_FORCE_SCALAR=1, which covers both phase-1 paths of the
// blocked kernel.
//
// The workload's shape does the stress testing: a cold tail over a domain
// of at least 2^20 keeps the kPlanCacheSlots-slot cache evicting, and batch
// sizes that are not multiples of kBatchBlockSize — some below the 8-lane
// SIMD width — force block and lane remainders on every call.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/skimmed_sketch.h"
#include "gtest/gtest.h"
#include "sketch/agms_sketch.h"
#include "sketch/count_min_sketch.h"
#include "sketch/hash_sketch.h"
#include "sketch/kernel.h"
#include "stream/stream_element.h"
#include "util/random.h"

namespace skimjoin {
namespace {

using sketch::Kernel;
using stream::StreamElement;

/// Smallest cold-tail domain: far more distinct values than the plan cache
/// has slots.
constexpr uint64_t kColdDomain = uint64_t{1} << 20;

/// A randomized workload: Zipf-ish skew (hot values repeat, exercising the
/// plan cache), a cold tail over `domain` (cache misses and evictions),
/// signed weights including deletes, and — when requested — values beyond
/// `domain` to hit the drop path.
std::vector<StreamElement> MakeWorkload(Rng* rng, uint64_t domain,
                                        uint64_t num_elements,
                                        bool include_out_of_domain) {
  std::vector<StreamElement> elements;
  elements.reserve(num_elements);
  const uint64_t hot_set = 1 + rng->NextUint64Below(16);
  for (uint64_t i = 0; i < num_elements; ++i) {
    uint64_t value;
    const uint64_t roll = rng->NextUint64Below(100);
    if (roll < 50) {
      value = rng->NextUint64Below(hot_set);  // hot keys: cache hits
    } else if (include_out_of_domain && roll < 55) {
      value = domain + rng->NextUint64Below(1 + domain);  // dropped
    } else {
      value = rng->NextUint64Below(domain);  // cold tail: cache misses
    }
    int64_t weight = 1;
    const uint64_t wroll = rng->NextUint64Below(10);
    if (wroll < 2) {
      weight = -1;  // delete
    } else if (wroll < 4) {
      weight = 1 + static_cast<int64_t>(rng->NextUint64Below(1000));
    }
    elements.push_back({value, weight});
  }
  return elements;
}

/// Feeds `elements` through a mix of scalar Update calls and UpdateBatch
/// calls: empty batches, batches below the 8-lane SIMD width, batches
/// inside one block, and batches spanning several blocks with a ragged
/// tail (never a multiple of kBatchBlockSize). `split_rng` must be seeded
/// identically across kernels so both see the same call sequence.
template <typename Sketch>
void ApplyWorkload(Sketch* sketch, std::span<const StreamElement> elements,
                   Rng* split_rng) {
  size_t pos = 0;
  while (pos < elements.size()) {
    size_t batch = 0;
    switch (split_rng->NextUint64Below(5)) {
      case 0:
        sketch->Update(elements[pos]);
        ++pos;
        continue;
      case 1:
        batch = split_rng->NextUint64Below(8);  // 0..7: below lane width
        break;
      case 2:
        batch = 8 + split_rng->NextUint64Below(sketch::kBatchBlockSize - 8);
        break;
      default:
        batch = sketch::kBatchBlockSize * (1 + split_rng->NextUint64Below(4)) +
                1 + split_rng->NextUint64Below(sketch::kBatchBlockSize - 1);
        break;
    }
    batch = std::min(batch, elements.size() - pos);
    sketch->UpdateBatch(elements.subspan(pos, batch));
    pos += batch;
  }
  sketch->UpdateBatch({});  // empty batch must be a no-op in every kernel
}

template <typename Sketch>
std::string Serialize(const Sketch& sketch) {
  std::ostringstream out;
  const Status status = sketch.SerializeTo(out);
  EXPECT_TRUE(status.ok()) << status.ToString();
  return std::move(out).str();
}

template <typename Sketch>
struct KernelPair {
  Sketch reference;
  Sketch fast;
};

/// Runs `make_sketch()` under the reference and the fast kernel over the
/// same workload and asserts both serialize to the same bytes. Returns both
/// sketches for kernel-specific checks.
template <typename Sketch>
KernelPair<Sketch> ExpectFastMatchesReference(
    const std::function<Sketch()>& make_sketch,
    std::span<const StreamElement> elements, uint64_t split_seed,
    const std::string& context) {
  KernelPair<Sketch> pair{make_sketch(), make_sketch()};
  pair.reference.SetKernel(Kernel::kReference);
  Rng reference_split(split_seed);
  ApplyWorkload(&pair.reference, elements, &reference_split);

  EXPECT_EQ(pair.fast.kernel(), Kernel::kFast) << "new sketches run kFast";
  Rng fast_split(split_seed);
  ApplyWorkload(&pair.fast, elements, &fast_split);

  EXPECT_EQ(Serialize(pair.fast), Serialize(pair.reference))
      << context << ": fast kernel diverged from the reference";
  return pair;
}

TEST(KernelDifferentialTest, HashSketchFastMatchesReference) {
  Rng rng(101);
  for (int trial = 0; trial < 8; ++trial) {
    sketch::HashSketchConfig config;
    config.num_tables = 1 + rng.NextUint64Below(9);
    config.num_buckets = 1 + rng.NextUint64Below(700);
    if (trial % 4 == 3) {
      // More than 2 MiB of counters: the blocked kernel stages its misses
      // for the table-major scatter.
      config.num_tables = 7 + rng.NextUint64Below(3);
      config.num_buckets = 40000 + rng.NextUint64Below(9);
    }
    const uint64_t seed = rng.NextUint64();
    const uint64_t domain = kColdDomain + rng.NextUint64Below(kColdDomain);
    const auto elements =
        MakeWorkload(&rng, domain, 40000 + rng.NextUint64Below(20000),
                     /*include_out_of_domain=*/false);
    const uint64_t split_seed = rng.NextUint64();
    const auto sketches = ExpectFastMatchesReference<sketch::HashSketch>(
        [&] {
          auto sketch = sketch::HashSketch::Create(config, seed);
          EXPECT_TRUE(sketch.ok());
          return *std::move(sketch);
        },
        elements, split_seed,
        "HashSketch trial " + std::to_string(trial) + " tables=" +
            std::to_string(config.num_tables) + " buckets=" +
            std::to_string(config.num_buckets));
    // More misses than slots: at least the excess evicted a cached plan.
    EXPECT_GT(sketches.fast.hash_cache_misses(), sketch::kPlanCacheSlots)
        << "trial " << trial << " never filled the plan cache";
  }
}

TEST(KernelDifferentialTest, CountMinSketchFastMatchesReference) {
  Rng rng(202);
  for (int trial = 0; trial < 8; ++trial) {
    sketch::CountMinConfig config;
    config.num_tables = 1 + rng.NextUint64Below(7);
    config.num_buckets = 1 + rng.NextUint64Below(500);
    if (trial % 4 == 3) {  // staged scatter, as for HashSketch
      config.num_tables = 5 + rng.NextUint64Below(3);
      config.num_buckets = 60000 + rng.NextUint64Below(9);
    }
    const uint64_t seed = rng.NextUint64();
    const uint64_t domain = kColdDomain + rng.NextUint64Below(kColdDomain);
    const auto elements =
        MakeWorkload(&rng, domain, 40000 + rng.NextUint64Below(20000),
                     /*include_out_of_domain=*/false);
    const uint64_t split_seed = rng.NextUint64();
    const auto sketches = ExpectFastMatchesReference<sketch::CountMinSketch>(
        [&] {
          auto sketch = sketch::CountMinSketch::Create(config, seed);
          EXPECT_TRUE(sketch.ok());
          return *std::move(sketch);
        },
        elements, split_seed,
        "CountMinSketch trial " + std::to_string(trial) + " tables=" +
            std::to_string(config.num_tables) + " buckets=" +
            std::to_string(config.num_buckets));
    EXPECT_GT(sketches.fast.hash_cache_misses(), sketch::kPlanCacheSlots)
        << "trial " << trial << " never filled the plan cache";
  }
}

TEST(KernelDifferentialTest, AgmsSketchFastMatchesReference) {
  Rng rng(303);
  for (int trial = 0; trial < 6; ++trial) {
    sketch::AgmsConfig config;
    config.num_means = 1 + rng.NextUint64Below(48);
    config.num_medians = 1 + rng.NextUint64Below(7);
    const uint64_t seed = rng.NextUint64();
    const uint64_t domain = kColdDomain + rng.NextUint64Below(kColdDomain);
    const auto elements =
        MakeWorkload(&rng, domain, 1000 + rng.NextUint64Below(2000),
                     /*include_out_of_domain=*/false);
    const uint64_t split_seed = rng.NextUint64();
    ExpectFastMatchesReference<sketch::AgmsSketch>(
        [&] {
          auto sketch = sketch::AgmsSketch::Create(config, seed);
          EXPECT_TRUE(sketch.ok());
          return *std::move(sketch);
        },
        elements, split_seed,
        "AgmsSketch trial " + std::to_string(trial) + " means=" +
            std::to_string(config.num_means) + " medians=" +
            std::to_string(config.num_medians));
  }
}

TEST(KernelDifferentialTest, SkimmedSketchFastMatchesReference) {
  Rng rng(404);
  for (int trial = 0; trial < 8; ++trial) {
    core::SkimmedSketchConfig config;
    // Trials alternate the dyadic layout and a 2^20 domain (whose level-0
    // cache evicts constantly) with small random domains.
    config.use_dyadic_skim = (trial % 2 == 0);
    config.domain_size = (trial / 2) % 2 == 0
                             ? kColdDomain
                             : uint64_t{1} << (6 + rng.NextUint64Below(8));
    config.num_tables = 1 + rng.NextUint64Below(7);
    config.num_buckets = 1 + rng.NextUint64Below(300);
    const uint64_t seed = rng.NextUint64();
    // Out-of-domain values exercise the drop path in both kernels; the
    // dropped-update tally must agree as well (it is part of observable
    // behaviour even though it is not serialized).
    const uint64_t num_elements = config.domain_size == kColdDomain
                                      ? 30000 + rng.NextUint64Below(10000)
                                      : 2000 + rng.NextUint64Below(3000);
    const auto elements = MakeWorkload(&rng, config.domain_size, num_elements,
                                       /*include_out_of_domain=*/true);
    const uint64_t split_seed = rng.NextUint64();
    const std::string context =
        "SkimmedSketch trial " + std::to_string(trial) +
        " dyadic=" + std::to_string(config.use_dyadic_skim) +
        " domain=" + std::to_string(config.domain_size);
    const auto sketches = ExpectFastMatchesReference<core::SkimmedSketch>(
        [&] {
          auto sketch = core::SkimmedSketch::Create(config, seed);
          EXPECT_TRUE(sketch.ok()) << sketch.status().ToString();
          return *std::move(sketch);
        },
        elements, split_seed, context);
    EXPECT_EQ(sketches.fast.dropped_updates(),
              sketches.reference.dropped_updates())
        << context << ": drop counts diverged";
    EXPECT_EQ(sketches.reference.hash_cache_hits() +
                  sketches.reference.hash_cache_misses(),
              0u)
        << context << ": the reference kernel must not touch a plan cache";
  }
}

// Toggling kernels mid-stream must not disturb accumulated counters: the
// cache is rebuilt but the counter array carries over untouched.
TEST(KernelDifferentialTest, SwitchingKernelsMidStreamPreservesCounters) {
  Rng rng(505);
  sketch::HashSketchConfig config;
  config.num_tables = 5;
  config.num_buckets = 123;
  const auto elements = MakeWorkload(&rng, /*domain=*/4096, 6000,
                                     /*include_out_of_domain=*/false);
  const auto half = elements.size() / 2;

  auto reference = sketch::HashSketch::Create(config, 99);
  ASSERT_TRUE(reference.ok());
  reference->SetKernel(Kernel::kReference);
  reference->UpdateBatch(std::span<const StreamElement>(elements));

  auto switched = sketch::HashSketch::Create(config, 99);
  ASSERT_TRUE(switched.ok());
  switched->UpdateBatch(std::span<const StreamElement>(elements).first(half));
  switched->SetKernel(Kernel::kReference);
  switched->UpdateBatch(
      std::span<const StreamElement>(elements).subspan(half));

  EXPECT_EQ(Serialize(*switched), Serialize(*reference));
}

// The plan cache is derived state: Reset() must clear counters while cached
// plans stay valid, and subsequent updates must still match the reference.
TEST(KernelDifferentialTest, ResetThenReuseStaysBitIdentical) {
  Rng rng(606);
  sketch::HashSketchConfig config;
  config.num_tables = 7;
  config.num_buckets = 257;
  const auto warmup = MakeWorkload(&rng, 2048, 3000, false);
  const auto after = MakeWorkload(&rng, 2048, 3000, false);

  auto fast = sketch::HashSketch::Create(config, 7);
  ASSERT_TRUE(fast.ok());
  fast->UpdateBatch(std::span<const StreamElement>(warmup));
  fast->Reset();
  fast->UpdateBatch(std::span<const StreamElement>(after));

  auto reference = sketch::HashSketch::Create(config, 7);
  ASSERT_TRUE(reference.ok());
  reference->SetKernel(Kernel::kReference);
  reference->UpdateBatch(std::span<const StreamElement>(after));

  EXPECT_EQ(Serialize(*fast), Serialize(*reference));
}

}  // namespace
}  // namespace skimjoin
