// Differential proof that the fast update kernel (fastmod, plan cache,
// blocked batches, SIMD lanes — DESIGN.md §10) is bit-identical to the
// scalar reference kernel: same counters, same serialized bytes, for every
// sketch family, across randomized shapes, seeds, batch splits, deletes
// and out-of-domain values. CI runs it both with the SIMD lanes dispatched
// and under SKIMJOIN_FORCE_SCALAR=1, which covers both phase-1 paths of the
// blocked kernel.
//
// The read side is held to the same line: SKIMDENSE's block scan
// (sketch::PointScan under core::SkimDenseNaive) against the per-value
// oracle it replaced, and the rule that a copy carries no plan cache.
// So are a miss's plan, filled with the SIMD lanes across tables, and the
// join pairs whose two sides share one plan cache.
//
// The workload's shape does the stress testing: a cold tail over a domain
// of at least 2^20 keeps the kPlanCacheSlots-slot cache evicting, and batch
// sizes that are not multiples of kBatchBlockSize — some below the 8-lane
// SIMD width — force block and lane remainders on every call.

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <span>
#include <sstream>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/join_estimators.h"
#include "core/skim.h"
#include "core/skimmed_sketch.h"
#include "gtest/gtest.h"
#include "hashing/hash_plan_cache.h"
#include "hashing/kwise_hash.h"
#include "hashing/prime_field.h"
#include "hashing/sign_hash.h"
#include "hashing/simd_hash.h"
#include "sketch/agms_sketch.h"
#include "sketch/count_min_sketch.h"
#include "sketch/hash_sketch.h"
#include "sketch/kernel.h"
#include "sketch/plan_kernel.h"
#include "sketch/point_scan.h"
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

// --- The block scan against the per-value skim ---------------------------

constexpr uint64_t kScanBlock = sketch::PointScan::kBlockSize;

/// The per-value SKIMDENSE the block scan replaced, kept as its oracle:
/// PointEstimate, then Update, one value at a time (paper Fig. 3).
core::DenseFrequencies PerValueSkim(sketch::HashSketch* sketch,
                                    uint64_t domain, int64_t threshold,
                                    int64_t margin) {
  core::DenseFrequencies dense;
  for (uint64_t value = 0; value < domain; ++value) {
    const int64_t estimate = sketch->PointEstimate(value);
    if (std::llabs(estimate) < threshold) continue;
    const int64_t magnitude = std::llabs(estimate) - margin;
    if (magnitude <= 0) continue;
    const int64_t skimmed = estimate >= 0 ? magnitude : -magnitude;
    dense.emplace_back(value, skimmed);
    sketch->Update(value, -skimmed);
  }
  return dense;
}

/// A stream over [0, domain) with three heavy values, two delete-dominated
/// ones (inserted, then deleted twice over, so their net frequency is
/// negative) and a ±1 tail of up to 2048 elements.
std::vector<StreamElement> MakeSkimStream(Rng* rng, uint64_t domain) {
  std::vector<StreamElement> elements;
  for (int heavy = 0; heavy < 5; ++heavy) {
    const uint64_t value = rng->NextUint64Below(domain);
    const auto weight = static_cast<int64_t>(100 + rng->NextUint64Below(400));
    elements.push_back({value, weight});
    elements.push_back({value, weight});
    if (heavy >= 3) elements.push_back({value, -4 * weight});
  }
  const uint64_t tail = std::min<uint64_t>(domain, 2048);
  for (uint64_t i = 0; i < tail; ++i) {
    elements.push_back({rng->NextUint64Below(domain),
                        rng->NextUint64Below(2) == 0 ? 1 : -1});
  }
  return elements;
}

bool SameCounters(const sketch::HashSketch& a, const sketch::HashSketch& b) {
  return std::ranges::equal(a.CounterArray(), b.CounterArray());
}

// Dense sets and residual counters of the block scan equal the per-value
// oracle's over table counts (odd, even, the network's seven), bucket
// counts (one and three put many dense values in shared buckets inside a
// block; 585 and 1025 are not powers of two), domains around the block size
// (ragged final blocks, domains below one block), margins and thresholds
// from 1 to above every estimate.
TEST(KernelDifferentialTest, BlockSkimMatchesPerValueSkim) {
  Rng rng(707);
  int cases = 0;
  for (const uint64_t tables : {1, 2, 7, 8, 9}) {
    for (const uint64_t buckets : {1, 3, 585, 1024, 1025}) {
      for (const uint64_t domain :
           {uint64_t{2}, kScanBlock - 1, kScanBlock, kScanBlock + 1,
            3 * kScanBlock + 5, uint64_t{1} << 16}) {
        auto sketch = sketch::HashSketch::Create({tables, buckets},
                                                 rng.NextUint64());
        ASSERT_TRUE(sketch.ok());
        const std::vector<StreamElement> elements =
            MakeSkimStream(&rng, domain);
        sketch->UpdateBatch(elements);
        int64_t above_every_estimate = 1;
        for (const StreamElement& element : elements) {
          above_every_estimate += std::llabs(element.weight);
        }
        for (const int64_t threshold : {int64_t{1}, int64_t{150},
                                        above_every_estimate}) {
          // The 2^16 domain (the shipped scan's size, where the per-value
          // oracle costs ~20 ms at nine tables) runs one threshold and no
          // margin; a threshold of 1 there would make nearly every value
          // dense, each re-estimating the rest of its block.
          const bool large = domain > 3 * kScanBlock + 5;
          if (large && threshold != 150) continue;
          for (const int64_t margin : {int64_t{0}, threshold / 2 + 1}) {
            if (margin > 0 && (large || threshold == above_every_estimate)) {
              continue;
            }
            const std::string context =
                "tables=" + std::to_string(tables) +
                " buckets=" + std::to_string(buckets) +
                " domain=" + std::to_string(domain) +
                " threshold=" + std::to_string(threshold) +
                " margin=" + std::to_string(margin);
            sketch::HashSketch block = *sketch;
            sketch::HashSketch oracle = *sketch;
            const core::DenseFrequencies got =
                core::SkimDenseNaive(&block, domain, threshold, margin);
            const core::DenseFrequencies want =
                PerValueSkim(&oracle, domain, threshold, margin);
            ASSERT_EQ(got, want) << context;
            ASSERT_TRUE(SameCounters(block, oracle)) << context;
            EXPECT_EQ(block.hash_cache_hits() + block.hash_cache_misses(), 0u)
                << context << ": the skim built a plan cache";
            if (threshold == above_every_estimate) {
              EXPECT_TRUE(got.empty()) << context;
            }
            ++cases;
          }
        }
      }
    }
  }
  EXPECT_EQ(cases, 5 * 5 * (5 * (2 + 2 + 1) + 1));
}

/// Every SIMD level from scalar up to the widest this machine runs.
std::vector<hashing::SimdLevel> SupportedLevels() {
  std::vector<hashing::SimdLevel> levels = {hashing::SimdLevel::kScalar};
  const hashing::SimdLevel widest = hashing::DetectSimdLevel();
  if (widest >= hashing::SimdLevel::kAvx2) {
    levels.push_back(hashing::SimdLevel::kAvx2);
  }
  if (widest >= hashing::SimdLevel::kAvx512) {
    levels.push_back(hashing::SimdLevel::kAvx512);
  }
  return levels;
}

// Each level's chains, gathers and medians give PointEstimate's answer for
// every value of ranges that start off a lane boundary, cross the field
// modulus 2^61 - 1 (where the fold wraps to 0) and end at 2^64 - 1; and
// Reestimate re-reads a block after its sketch changed.
TEST(KernelDifferentialTest, PointScanMatchesPointEstimateAtEveryLevel) {
  Rng rng(808);
  const uint64_t p = hashing::kMersennePrime61;
  const uint64_t top = ~uint64_t{0};
  const std::vector<std::pair<uint64_t, uint64_t>> ranges = {
      {0, 0},
      {0, 2},
      {5, kScanBlock + 9},
      {0, 3 * kScanBlock + 5},
      {p - 700, p + 300},
      {top - 2 * kScanBlock - 3, top}};
  for (const uint64_t tables : {1, 2, 7, 8, 9}) {
    for (const uint64_t buckets : {1, 3, 585, 1025}) {
      auto sketch =
          sketch::HashSketch::Create({tables, buckets}, rng.NextUint64());
      ASSERT_TRUE(sketch.ok());
      for (const auto& [lo, hi] : ranges) {
        for (uint64_t i = 0; i < 600 && lo + i < hi; ++i) {
          sketch->Update(lo + rng.NextUint64Below(hi - lo),
                         static_cast<int64_t>(rng.NextUint64Below(41)) - 20);
        }
      }
      for (const auto& [lo, hi] : ranges) {
        for (const hashing::SimdLevel level : SupportedLevels()) {
          const std::string context =
              "tables=" + std::to_string(tables) +
              " buckets=" + std::to_string(buckets) + " lo=" +
              std::to_string(lo) + " level=" + SimdLevelName(level);
          sketch::HashSketch scanned = *sketch;
          sketch::PointScan scan(scanned, lo, hi, level);
          uint64_t next = lo;
          while (scan.NextBlock()) {
            ASSERT_EQ(scan.block_lo(), next) << context;
            const size_t n = scan.estimates().size();
            for (size_t i = 0; i < n; ++i) {
              ASSERT_EQ(scan.estimates()[i], scanned.PointEstimate(next + i))
                  << context << " value=" << next + i;
            }
            const size_t from = n / 2;
            scanned.UpdateUncached(next + from, 1000);
            scan.Reestimate(from);
            for (size_t i = from; i < n; ++i) {
              ASSERT_EQ(scan.estimates()[i], scanned.PointEstimate(next + i))
                  << context << " re-estimated value=" << next + i;
            }
            next += n;
          }
          EXPECT_EQ(next, hi) << context;
        }
      }
    }
  }
}

// --- Copies carry no plan cache ------------------------------------------

// The engine skims a sketch that ingested (and holds a plan cache); the
// traced replay skims the same sketch deserialized (no cache). Both skims
// give the same answer, and neither residual copies or builds a cache.
TEST(KernelDifferentialTest, SkimOfDeserializedCopyMatchesIngestingOriginal) {
  for (const bool dyadic : {false, true}) {
    core::SkimmedSketchConfig config;
    config.domain_size = uint64_t{1} << 14;
    config.num_tables = 7;
    config.num_buckets = 585;
    config.use_dyadic_skim = dyadic;
    auto original = core::SkimmedSketch::Create(config, 42);
    ASSERT_TRUE(original.ok());
    Rng rng(909);
    original->UpdateBatch(MakeWorkload(&rng, config.domain_size, 50000,
                                       /*include_out_of_domain=*/false));
    ASSERT_GT(original->hash_cache_misses(), 0u);
    std::stringstream record(Serialize(*original));
    auto loaded = core::SkimmedSketch::DeserializeFrom(record);
    ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

    const core::SkimmedSketch::SkimOutput a = original->Skim();
    const core::SkimmedSketch::SkimOutput b = loaded->Skim();
    const std::string context = "dyadic=" + std::to_string(dyadic);
    EXPECT_FALSE(a.dense.empty()) << context;
    EXPECT_EQ(a.threshold, b.threshold) << context;
    EXPECT_EQ(a.dense, b.dense) << context;
    EXPECT_EQ(Serialize(a.skimmed), Serialize(b.skimmed)) << context;
    for (const auto* residual : {&a.skimmed, &b.skimmed}) {
      EXPECT_EQ(residual->hash_cache_hits() + residual->hash_cache_misses(),
                0u)
          << context;
    }
    EXPECT_EQ(a.skimmed.MemoryBytes(), b.skimmed.MemoryBytes()) << context;
  }
}

// A copy of an updated sketch starts without its source's plan cache —
// copy-constructed or copy-assigned — builds one on its first update, and
// then tracks the source counter for counter.
TEST(KernelDifferentialTest, CopyOfUpdatedSketchStartsWithoutPlanCache) {
  Rng rng(1001);
  const auto first = MakeWorkload(&rng, 1 << 16, 20000, false);
  const auto second = MakeWorkload(&rng, 1 << 16, 20000, false);
  auto original = sketch::HashSketch::Create({7, 585}, 31);
  ASSERT_TRUE(original.ok());
  original->UpdateBatch(first);
  ASSERT_GT(original->hash_cache_misses(), 0u);

  std::stringstream record(Serialize(*original));
  auto loaded = sketch::HashSketch::DeserializeFrom(record);
  ASSERT_TRUE(loaded.ok());
  sketch::HashSketch copy = *original;
  auto assigned = sketch::HashSketch::Create({7, 585}, 31);
  ASSERT_TRUE(assigned.ok());
  assigned->Update(3, 1);  // its own cache, which the assignment drops
  *assigned = *original;
  for (const sketch::HashSketch* sketch : {&copy, &*assigned}) {
    EXPECT_EQ(sketch->hash_cache_hits() + sketch->hash_cache_misses(), 0u);
    EXPECT_EQ(sketch->MemoryBytes(), loaded->MemoryBytes());
    EXPECT_LT(sketch->MemoryBytes(), original->MemoryBytes());
  }

  original->UpdateBatch(second);
  copy.UpdateBatch(second);
  EXPECT_GT(copy.hash_cache_misses(), 0u);
  EXPECT_EQ(copy.MemoryBytes(), original->MemoryBytes());
  EXPECT_EQ(Serialize(copy), Serialize(*original));
}

// A skimmed sketch's level 0 sees at most its domain, and sizes its cache
// to match.
TEST(KernelDifferentialTest, SkimmedLevel0CacheIsClampedToTheDomain) {
  for (const bool dyadic : {false, true}) {
    core::SkimmedSketchConfig config;
    config.domain_size = 1024;
    config.num_tables = 7;
    config.num_buckets = 64;
    config.use_dyadic_skim = dyadic;
    auto sketch = core::SkimmedSketch::Create(config, 5);
    ASSERT_TRUE(sketch.ok());
    EXPECT_EQ(sketch->level0().plan_cache_slots(), 0u);
    sketch->Update(17, 1);
    EXPECT_GT(sketch->level0().plan_cache_slots(), 0u);
    EXPECT_LE(sketch->level0().plan_cache_slots(), 1024u) << dyadic;
  }
}

// --- A miss's plan: the SIMD lanes across tables -------------------------

// At every level the machine runs, FillPlan's words equal the ones the
// scalar FillPlan writes and the per-table families give, for 1 to 17
// tables (short and long lane rows, ragged tails) in both plan layouts.
template <bool kSigned>
void ExpectLaneFillMatchesScalarFill(Rng* rng) {
  const uint64_t p = hashing::kMersennePrime61;
  std::vector<uint64_t> values = {0, 1, p - 1, p, p + 1, uint64_t{1} << 63,
                                  ~uint64_t{0}};
  for (int i = 0; i < 200; ++i) values.push_back(rng->NextUint64());
  for (uint64_t tables = 1; tables <= 17; ++tables) {
    for (const uint64_t buckets : {uint64_t{1}, uint64_t{3}, uint64_t{585},
                                   (uint64_t{1} << 31) - 1}) {
      std::vector<hashing::BucketHash> bucket_hashes;
      std::vector<hashing::SignHash> sign_hashes;
      for (uint64_t t = 0; t < tables; ++t) {
        bucket_hashes.emplace_back(buckets, rng);
        if (kSigned) sign_hashes.emplace_back(rng);
      }
      std::vector<uint32_t> scalar_plan(tables);
      std::vector<uint32_t> plan(tables);
      // FillPlan reads no counters, so the kernels get none.
      sketch::internal::PlanState scalar_state(16, bucket_hashes, sign_hashes);
      scalar_state.level = hashing::SimdLevel::kScalar;
      const sketch::internal::PlanKernel<kSigned> scalar(
          bucket_hashes, sign_hashes, {}, buckets, &scalar_state);
      for (const hashing::SimdLevel level : SupportedLevels()) {
        sketch::internal::PlanState state(16, bucket_hashes, sign_hashes);
        state.level = level;
        const sketch::internal::PlanKernel<kSigned> kernel(
            bucket_hashes, sign_hashes, {}, buckets, &state);
        for (const uint64_t value : values) {
          scalar.FillPlan(value, scalar_plan.data());
          kernel.FillPlan(value, plan.data());
          ASSERT_EQ(plan, scalar_plan)
              << "signed=" << kSigned << " tables=" << tables
              << " buckets=" << buckets << " level=" << SimdLevelName(level)
              << " value=" << value;
          for (uint64_t t = 0; t < tables; ++t) {
            const uint32_t expected =
                kSigned ? hashing::PackBucketSign(bucket_hashes[t](value),
                                                  sign_hashes[t](value))
                        : static_cast<uint32_t>(bucket_hashes[t](value));
            ASSERT_EQ(plan[t], expected)
                << "signed=" << kSigned << " tables=" << tables
                << " table=" << t << " value=" << value;
          }
        }
      }
    }
  }
}

TEST(KernelDifferentialTest, LaneFillMatchesScalarFill) {
  Rng rng(1101);
  ExpectLaneFillMatchesScalarFill<true>(&rng);
  ExpectLaneFillMatchesScalarFill<false>(&rng);
}

// --- Join pairs share one plan cache -------------------------------------

constexpr uint64_t kPairSeed = 77;

core::EstimatorSpec PairSpec(core::EstimatorKind kind, bool dyadic) {
  core::EstimatorSpec spec;
  spec.kind = kind;
  spec.domain_size = uint64_t{1} << 12;
  spec.space_counters = 4096;
  spec.num_tables = 7;
  spec.skimmed_use_dyadic = dyadic;
  return spec;
}

/// A fresh standalone sketch equal to each side of a pair built from
/// `spec` and kPairSeed.
template <typename Sketch>
Sketch PairSide(const core::EstimatorSpec& spec) {
  if constexpr (std::is_same_v<Sketch, core::SkimmedSketch>) {
    core::SkimmedSketchConfig config;
    config.domain_size = spec.domain_size;
    config.num_tables = spec.num_tables;
    config.threshold_scale = spec.threshold_scale;
    config.recurse_slack = spec.recurse_slack;
    config.skim_margin = spec.skim_margin;
    config.use_dyadic_skim = spec.skimmed_use_dyadic;
    EXPECT_TRUE(core::SplitSpaceBudget(spec.space_counters, &config).ok());
    auto sketch = Sketch::Create(config, kPairSeed);
    EXPECT_TRUE(sketch.ok());
    return *std::move(sketch);
  } else {
    auto sketch = Sketch::Create(
        {spec.num_tables, spec.space_counters / spec.num_tables}, kPairSeed);
    EXPECT_TRUE(sketch.ok());
    return *std::move(sketch);
  }
}

std::string PairRecord(const core::JoinEstimatorPair& pair) {
  std::ostringstream out;
  EXPECT_TRUE(pair.SerializeTo(out).ok());
  return std::move(out).str();
}

/// Feeds a pair of `spec` and two standalone kReference sketches the same
/// interleaved F/G updates, restores the pair from its own record halfway
/// and feeds on, and holds the pair to the standalone sketches' bytes and
/// to the cache rules: none before the first update, one counted once
/// after it, the same one after the restore.
template <typename Sketch>
void ExpectPairMatchesStandaloneSides(const core::EstimatorSpec& spec) {
  const std::string context = std::string(core::EstimatorKindName(spec.kind)) +
                              " dyadic=" +
                              std::to_string(spec.skimmed_use_dyadic);
  auto pair = core::CreateJoinEstimatorPair(spec, kPairSeed);
  ASSERT_TRUE(pair.ok()) << pair.status().ToString();
  Sketch reference_f = PairSide<Sketch>(spec);
  Sketch reference_g = PairSide<Sketch>(spec);
  const uint64_t side_bytes = reference_f.MemoryBytes();
  EXPECT_EQ((*pair)->MemoryBytes(), 2 * side_bytes)
      << context << ": a pair that never ingests holds no cache";
  Sketch updated = PairSide<Sketch>(spec);
  updated.Update(1, 1);
  const uint64_t cache_bytes = updated.MemoryBytes() - side_bytes;
  ASSERT_GT(cache_bytes, 0u) << context;
  reference_f.SetKernel(Kernel::kReference);
  reference_g.SetKernel(Kernel::kReference);

  Rng rng(1202);
  const auto f = MakeWorkload(&rng, spec.domain_size, 20000,
                              /*include_out_of_domain=*/true);
  const auto g = MakeWorkload(&rng, spec.domain_size, 20000,
                              /*include_out_of_domain=*/true);
  const auto feed = [&](size_t from, size_t to) {
    for (size_t i = from; i < to; ++i) {
      (*pair)->UpdateF(f[i]);
      reference_f.Update(f[i]);
      (*pair)->UpdateG(g[i]);
      reference_g.Update(g[i]);
    }
  };
  feed(0, f.size() / 2);
  EXPECT_EQ((*pair)->MemoryBytes(), 2 * side_bytes + cache_bytes)
      << context << ": the shared cache counts once";
  std::stringstream record(PairRecord(**pair));
  ASSERT_TRUE((*pair)->RestoreFrom(record).ok()) << context;
  EXPECT_EQ((*pair)->MemoryBytes(), 2 * side_bytes + cache_bytes)
      << context << ": the shared cache survives RestoreFrom";
  feed(f.size() / 2, f.size());
  EXPECT_EQ(PairRecord(**pair), "skimjoin.join_pair v1 " +
                                    std::string((*pair)->Name()) + "\n" +
                                    Serialize(reference_f) +
                                    Serialize(reference_g))
      << context;
}

TEST(KernelDifferentialTest, PairSidesSharingACacheMatchStandaloneReference) {
  using core::EstimatorKind;
  ExpectPairMatchesStandaloneSides<sketch::HashSketch>(
      PairSpec(EstimatorKind::kHashSketch, false));
  ExpectPairMatchesStandaloneSides<sketch::CountMinSketch>(
      PairSpec(EstimatorKind::kCountMin, false));
  ExpectPairMatchesStandaloneSides<core::SkimmedSketch>(
      PairSpec(EstimatorKind::kSkimmedSketch, false));
  ExpectPairMatchesStandaloneSides<core::SkimmedSketch>(
      PairSpec(EstimatorKind::kSkimmedSketch, true));
}

// A pair that only restores and merges records — a coordinator's — never
// builds a cache.
TEST(KernelDifferentialTest, PairThatNeverIngestsHoldsNoPlanCache) {
  using core::EstimatorKind;
  for (const auto& [kind, dyadic] :
       std::vector<std::pair<EstimatorKind, bool>>{
           {EstimatorKind::kHashSketch, false},
           {EstimatorKind::kCountMin, false},
           {EstimatorKind::kSkimmedSketch, false},
           {EstimatorKind::kSkimmedSketch, true}}) {
    const core::EstimatorSpec spec = PairSpec(kind, dyadic);
    auto site = core::CreateJoinEstimatorPair(spec, kPairSeed);
    auto coordinator = core::CreateJoinEstimatorPair(spec, kPairSeed);
    ASSERT_TRUE(site.ok() && coordinator.ok());
    const uint64_t fresh = (*coordinator)->MemoryBytes();
    for (uint64_t v = 0; v < 100; ++v) {
      (*site)->UpdateF(v, 1);
      (*site)->UpdateG(v + 1, 2);
    }
    const std::string record = PairRecord(**site);
    std::stringstream restore(record);
    std::stringstream merge(record);
    ASSERT_TRUE((*coordinator)->RestoreFrom(restore).ok());
    ASSERT_TRUE((*coordinator)->MergeFrom(merge).ok());
    EXPECT_EQ((*coordinator)->MemoryBytes(), fresh)
        << core::EstimatorKindName(kind) << " dyadic=" << dyadic;
    EXPECT_LT(fresh, (*site)->MemoryBytes());
  }
}

}  // namespace
}  // namespace skimjoin
