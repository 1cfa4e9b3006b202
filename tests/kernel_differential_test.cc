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
#include <utility>
#include <vector>

#include "core/skim.h"
#include "core/skimmed_sketch.h"
#include "gtest/gtest.h"
#include "hashing/prime_field.h"
#include "hashing/simd_hash.h"
#include "sketch/agms_sketch.h"
#include "sketch/count_min_sketch.h"
#include "sketch/hash_sketch.h"
#include "sketch/kernel.h"
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

}  // namespace
}  // namespace skimjoin
