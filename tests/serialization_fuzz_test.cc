// Fuzz-style deserialization tests: DeserializeFrom consumes UNTRUSTED
// bytes (synopses shipped between sites), so hostile or corrupt records
// must come back as INVALID_ARGUMENT — never a crash, never an allocation
// beyond the configurable cap. Covers oversized headers, dimension-product
// overflow, truncation at every prefix length, flipped bytes, and the
// explicit end-sentinel that distinguishes a complete counter block from
// one truncated at a counter boundary. The four counter-block records are
// pinned byte for byte by golden records, and every record the engine
// writes is swept with header values inflated past anything a reader may
// allocate from.
//
// The same discipline applies one layer down: dist wire frames arrive from
// the network, so a recorded coordinator/worker exchange is replayed here
// through the incremental frame decoder under truncation and bit-flips —
// every mutation must come back as a Status (or "need more bytes"), never
// a crash and never a payload allocation beyond kMaxFramePayload.

#include <algorithm>
#include <cstdint>
#include <functional>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/dyadic_skim.h"
#include "core/skimmed_sketch.h"
#include "dist/frame.h"
#include "gtest/gtest.h"
#include "one_per_kind_engine.h"
#include "query/engine.h"
#include "sketch/agms_sketch.h"
#include "sketch/count_min_sketch.h"
#include "sketch/fm_sketch.h"
#include "sketch/hash_sketch.h"
#include "sketch/serial_limits.h"
#include "util/random.h"

namespace skimjoin {
namespace {

template <typename Sketch>
std::string Serialized(const Sketch& sketch) {
  std::stringstream buffer;
  EXPECT_TRUE(sketch.SerializeTo(buffer).ok());
  return buffer.str();
}

// ---- counter-block records ----------------------------------------------

// A record's header dimensions with one value replaced by 0, by a pair
// whose product wraps uint64, or by a product far past the cap.
std::vector<std::vector<std::string>> HostileDims(size_t dims) {
  if (dims == 1) {
    return {{"0"}, {"18446744073709551615"}, {"288230376151711744"},
            {"1000000000000"}};
  }
  return {{"0", "8"},
          {"3", "0"},
          {"4294967296", "4294967296"},
          {"18446744073709551615", "3"},
          {"1000000", "1000000"},
          {"1", "99999999999999"}};
}

template <typename Sketch>
std::string FedRecord(StatusOr<Sketch> sketch) {
  EXPECT_TRUE(sketch.ok());
  for (uint64_t v = 0; v < 40; ++v) {
    sketch->Update(v * 7 % 64, static_cast<int64_t>(v % 5) - 1);
  }
  return Serialized(*sketch);
}

// Deserializes `text`, then serializes what came back.
template <typename Sketch>
StatusOr<std::string> Reload(const std::string& text) {
  std::stringstream in(text);
  SKIMJOIN_ASSIGN_OR_RETURN(Sketch sketch, Sketch::DeserializeFrom(in));
  return Serialized(sketch);
}

// One family whose record is a header, a counter block and `end`: a small
// seeded sketch, the exact record it writes (checkpoints and shard deltas
// store these bytes, so a refactor must not move one), and the number of
// dimension tokens that open the header's second line.
struct CounterBlockRecord {
  const char* family;
  std::function<std::string()> build;
  const char* golden;
  size_t dims;
  std::function<StatusOr<std::string>(const std::string&)> reload;
};

const std::vector<CounterBlockRecord>& CounterBlockRecords() {
  static const std::vector<CounterBlockRecord> records = {
      {"hash-sketch v2",
       [] { return FedRecord(sketch::HashSketch::Create({3, 8}, 11)); },
       "skimjoin.hash_sketch v2\n3 8 11\n"
       "3 3 -1 -3 6 0 -2 -2 -4 0 1 0 -6 2 3 -4 2 2 3 -2 6 1 -6 6\nend\n",
       2, Reload<sketch::HashSketch>},
      {"count-min v1",
       [] { return FedRecord(sketch::CountMinSketch::Create({3, 8}, 12)); },
       "skimjoin.count_min v1\n3 8 12\n"
       "6 9 3 4 4 9 2 3 3 6 5 4 7 5 8 2 2 10 9 4 2 7 4 2\nend\n",
       2, Reload<sketch::CountMinSketch>},
      {"AGMS v2",
       [] { return FedRecord(sketch::AgmsSketch::Create({4, 3}, 13)); },
       "skimjoin.agms_sketch v2\n4 3 13\n"
       "14 4 6 -16 -2 -4 -14 -10 8 4 14 14\nend\n",
       2, Reload<sketch::AgmsSketch>},
      {"FM v1", [] { return FedRecord(sketch::FmSketch::Create(1, 14)); },
       "skimjoin.fm_sketch v1\n1 14\n"
       "21 9 3 2 2 0 0 3 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 "
       "0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0 0\nend\n",
       1, Reload<sketch::FmSketch>},
  };
  return records;
}

TEST(CounterBlockRecordTest, SeededSketchWritesTheGoldenRecord) {
  for (const CounterBlockRecord& record : CounterBlockRecords()) {
    EXPECT_EQ(record.build(), record.golden) << record.family;
  }
}

TEST(CounterBlockRecordTest, GoldenRecordRoundTripsByteIdentical) {
  for (const CounterBlockRecord& record : CounterBlockRecords()) {
    StatusOr<std::string> again = record.reload(record.golden);
    ASSERT_TRUE(again.ok()) << record.family << ": " << again.status();
    EXPECT_EQ(*again, record.golden) << record.family;
  }
}

TEST(CounterBlockRecordTest, EveryTruncatedPrefixRefused) {
  for (const CounterBlockRecord& record : CounterBlockRecords()) {
    const std::string full = record.golden;
    // Every strict prefix except "full minus the final newline" (the format
    // is whitespace-delimited, so the sentinel still parses there).
    for (size_t len = 0; len + 1 < full.size(); ++len) {
      EXPECT_FALSE(record.reload(full.substr(0, len)).ok())
          << record.family << " prefix length " << len;
    }
  }
}

TEST(CounterBlockRecordTest, HostileDimsRefusedBeforeAllocating) {
  for (const CounterBlockRecord& record : CounterBlockRecords()) {
    const std::string full = record.golden;
    const size_t header = full.find('\n') + 1;
    for (const std::vector<std::string>& dims : HostileDims(record.dims)) {
      // Replace the leading dimension tokens of the header line.
      size_t end = header;
      std::string hostile = full.substr(0, header);
      for (const std::string& dim : dims) {
        end = full.find_first_of(" \n", end) + 1;
        hostile += dim + ' ';
      }
      hostile.pop_back();
      hostile += full.substr(end - 1);
      StatusOr<std::string> result = record.reload(hostile);
      ASSERT_FALSE(result.ok()) << record.family << ": " << hostile;
      EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
      // Refused by the header check, not by a short counter block read
      // after an allocation.
      EXPECT_NE(result.status().message().find("record header"),
                std::string::npos)
          << record.family << ": " << result.status();
    }
  }
}

TEST(CounterBlockRecordTest, MissingEndRefused) {
  // A record chopped exactly at a counter boundary parses every counter;
  // only the sentinel tells it from a complete one.
  for (const CounterBlockRecord& record : CounterBlockRecords()) {
    const std::string full = record.golden;
    StatusOr<std::string> result =
        record.reload(full.substr(0, full.rfind("end\n")));
    ASSERT_FALSE(result.ok()) << record.family;
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument)
        << record.family;
  }
}

TEST(HashSketchFuzzTest, ByteFlipsNeverCrash) {
  auto sketch = *sketch::HashSketch::Create({3, 16}, 2);
  for (int i = 0; i < 500; ++i) sketch.Update(i % 40, 1);
  const std::string full = Serialized(sketch);
  Rng rng(99);
  for (int trial = 0; trial < 500; ++trial) {
    std::string mutated = full;
    const size_t pos = rng.NextUint64Below(mutated.size());
    mutated[pos] = static_cast<char>(rng.NextUint64Below(256));
    std::stringstream in(mutated);
    // Must terminate without crashing; result may be ok (benign digit flip)
    // or INVALID_ARGUMENT — both are acceptable, aborting is not.
    (void)sketch::HashSketch::DeserializeFrom(in);
  }
}

TEST(HashSketchFuzzTest, NegativeCountersAreLegalStreamData) {
  // Deletes drive counters negative; a record full of them must round-trip.
  auto sketch = *sketch::HashSketch::Create({3, 8}, 1);
  for (int i = 0; i < 100; ++i) sketch.Update(i % 20, -3);
  std::stringstream buffer(Serialized(sketch));
  StatusOr<sketch::HashSketch> restored =
      sketch::HashSketch::DeserializeFrom(buffer);
  ASSERT_TRUE(restored.ok());
  EXPECT_TRUE(restored->CompatibleWith(sketch));
}

TEST(DyadicSkimmerFuzzTest, HostileExactLevelSizeRejected) {
  // A huge power-of-two domain makes every shallow level "exact" with
  // billions of counters; the cap must reject before the resize.
  std::stringstream hostile(
      "skimjoin.dyadic_skimmer v3\n9223372036854775808\nexact "
      "4611686018427387904\n0\nend\n");
  StatusOr<core::DyadicSkimmer> result =
      core::DyadicSkimmer::DeserializeFrom(hostile);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(DyadicSkimmerFuzzTest, UnknownLevelKindRejected) {
  std::stringstream hostile(
      "skimjoin.dyadic_skimmer v3\n16\nwhatever 8\nend\n");
  EXPECT_FALSE(core::DyadicSkimmer::DeserializeFrom(hostile).ok());
}

TEST(SkimmedSketchFuzzTest, HostileHeaderRejectedBeforeNestedRecords) {
  // num_tables * num_buckets far beyond the cap; must fail on the header,
  // not inside a nested allocation.
  std::stringstream hostile(
      "skimjoin.skimmed_sketch v2\n65536 99999999 99999999 0 0 2 2 0.5 0 "
      "7\n");
  StatusOr<core::SkimmedSketch> result =
      core::SkimmedSketch::DeserializeFrom(hostile);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);

  // Invalid config values (zero tables, bad slack) rejected by the same
  // validation Create applies.
  std::stringstream bad_config(
      "skimjoin.skimmed_sketch v2\n65536 0 512 0 0 2 2 0.5 0 7\n");
  EXPECT_FALSE(core::SkimmedSketch::DeserializeFrom(bad_config).ok());
  std::stringstream bad_slack(
      "skimjoin.skimmed_sketch v2\n65536 7 512 0 0 2 2 7.5 0 7\n");
  EXPECT_FALSE(core::SkimmedSketch::DeserializeFrom(bad_slack).ok());
}

TEST(SkimmedSketchFuzzTest, TruncationSweepNeverCrashes) {
  core::SkimmedSketchConfig config;
  config.domain_size = 64;
  config.num_buckets = 16;
  config.dyadic_num_buckets = 4;
  auto sketch = *core::SkimmedSketch::Create(config, 3);
  for (int i = 0; i < 300; ++i) sketch.Update(i % 64, 1);
  const std::string full = Serialized(sketch);
  for (size_t len = 0; len + 1 < full.size(); len += 7) {
    std::stringstream in(full.substr(0, len));
    EXPECT_FALSE(core::SkimmedSketch::DeserializeFrom(in).ok())
        << "prefix length " << len;
  }
  std::stringstream in(full);
  EXPECT_TRUE(core::SkimmedSketch::DeserializeFrom(in).ok());
}

// ---- engine synopsis records ---------------------------------------------

// Offset and length of each of the first `limit` integer tokens of `text`.
std::vector<std::pair<size_t, size_t>> IntegerTokens(const std::string& text,
                                                     size_t limit) {
  std::vector<std::pair<size_t, size_t>> tokens;
  size_t pos = 0;
  while (tokens.size() < limit) {
    const size_t begin = text.find_first_not_of(" \n", pos);
    if (begin == std::string::npos) break;
    pos = std::min(text.find_first_of(" \n", begin), text.size());
    const size_t digits = begin + (text[begin] == '-' ? 1 : 0);
    if (digits < pos &&
        std::all_of(text.begin() + digits, text.begin() + pos,
                    [](char c) { return c >= '0' && c <= '9'; })) {
      tokens.emplace_back(begin, pos - begin);
    }
  }
  return tokens;
}

// Every synopsis record the one-per-kind engine writes, with one or two of
// its first 12 integer tokens inflated to a size no header may be trusted
// with, loads as a Status: a reader checks a header value before it sizes
// an allocation from it.
TEST(EngineRecordFuzzTest, InflatedHeaderTokensLoadAsAStatus) {
  query::Engine engine;
  query::BuildOnePerKindEngine(&engine);
  const std::string inflated[] = {"9223372036854775807", "1099511627776"};
  size_t records = 0;
  for (query::QueryId id = 1;; ++id) {
    std::string record;
    const Status serialized = engine.SerializeQuerySynopsis(id, &record);
    if (serialized.code() == StatusCode::kNotFound) break;
    if (!serialized.ok()) continue;  // a family with no record
    ++records;
    const auto tokens = IntegerTokens(record, 12);
    for (const std::string& value : inflated) {
      // Token i alone when j == i, else tokens i and j; the later one is
      // replaced first so the earlier offset still holds.
      for (size_t i = 0; i < tokens.size(); ++i) {
        for (size_t j = i; j < tokens.size(); ++j) {
          std::string mutated = record;
          mutated.replace(tokens[j].first, tokens[j].second, value);
          if (j != i) mutated.replace(tokens[i].first, tokens[i].second, value);
          (void)engine.LoadQuerySynopsis(id, std::span(&mutated, 1));
        }
      }
    }
  }
  EXPECT_EQ(records, 8u);
}

// ---- dist wire frames ---------------------------------------------------

// Drains a byte stream through the incremental decoder exactly the way
// FrameChannel::Receive does: decode frames off the front until the decoder
// asks for more bytes (returns the frames seen so far) or rejects the
// stream (returns the rejection).
StatusOr<int> DrainFrames(std::string_view stream) {
  int frames = 0;
  while (true) {
    size_t consumed = 0;
    StatusOr<std::optional<dist::Frame>> decoded =
        dist::TryDecodeFrame(stream, &consumed);
    if (!decoded.ok()) return decoded.status();
    if (!decoded->has_value()) return frames;
    stream.remove_prefix(consumed);
    ++frames;
  }
}

// A realistic session transcript: several back-to-back frames whose
// payloads include a full serialized sketch (what delta pulls actually
// carry), an empty payload, and every byte value.
std::string RecordedExchange() {
  auto sketch = *sketch::HashSketch::Create({3, 16}, 2);
  for (int i = 0; i < 200; ++i) sketch.Update(i % 40, 1 - 2 * (i % 3 == 0));
  std::string binary;
  for (int i = 0; i < 256; ++i) binary.push_back(static_cast<char>(i));
  return dist::EncodeFrame(1, "hello shard=s0") +
         dist::EncodeFrame(2, "") +
         dist::EncodeFrame(3, Serialized(sketch)) +
         dist::EncodeFrame(4, binary);
}

TEST(WireFrameFuzzTest, RecordedExchangeReplaysCleanly) {
  StatusOr<int> frames = DrainFrames(RecordedExchange());
  ASSERT_TRUE(frames.ok()) << frames.status();
  EXPECT_EQ(*frames, 4);
}

TEST(WireFrameFuzzTest, TruncationAtEveryPrefixIsContained) {
  const std::string full = RecordedExchange();
  for (size_t len = 0; len < full.size(); ++len) {
    StatusOr<int> frames = DrainFrames(std::string_view(full).substr(0, len));
    // A strict prefix either decodes the frames that are whole and waits
    // for more bytes, or is rejected — but it can never yield all four
    // frames, and it must never crash.
    if (frames.ok()) {
      EXPECT_LT(*frames, 4) << "prefix of " << len << " bytes";
    } else {
      EXPECT_EQ(frames.status().code(), StatusCode::kInvalidArgument)
          << frames.status();
    }
  }
}

TEST(WireFrameFuzzTest, BitFlipAnywhereNeverSurvivesToAllFrames) {
  const std::string full = RecordedExchange();
  for (size_t i = 0; i < full.size(); ++i) {
    std::string bad = full;
    bad[i] = static_cast<char>(bad[i] ^ 0x01);
    StatusOr<int> frames = DrainFrames(bad);
    // The flip may land past the frames already decoded (fewer frames, then
    // "need more" from a corrupted length word) or trip magic/CRC/length
    // validation — but a stream with a flipped bit can never replay as the
    // original four intact frames.
    EXPECT_FALSE(frames.ok() && *frames == 4) << "flip at byte " << i;
  }
}

TEST(WireFrameFuzzTest, RandomMutationsNeverCrashTheDecoder) {
  const std::string full = RecordedExchange();
  Rng rng(20260808);
  for (int trial = 0; trial < 1000; ++trial) {
    std::string mutated = full;
    const int edits = 1 + static_cast<int>(rng.NextUint64Below(8));
    for (int e = 0; e < edits; ++e) {
      const size_t pos = rng.NextUint64Below(mutated.size());
      mutated[pos] = static_cast<char>(rng.NextUint64Below(256));
    }
    // Termination without a crash is the property; any Status is fine.
    (void)DrainFrames(mutated);
  }
}

TEST(WireFrameFuzzTest, HostileLengthRejectedBeforeAllocation) {
  // Valid magic + a length word past the cap: must be rejected from the
  // 16 header bytes alone, long before any payload could be buffered.
  std::string header;
  const auto le32 = [&header](uint32_t v) {
    header.push_back(static_cast<char>(v & 0xFF));
    header.push_back(static_cast<char>((v >> 8) & 0xFF));
    header.push_back(static_cast<char>((v >> 16) & 0xFF));
    header.push_back(static_cast<char>((v >> 24) & 0xFF));
  };
  le32(dist::kFrameMagic);
  le32(1);                                                    // type
  le32(static_cast<uint32_t>(dist::kMaxFramePayload) + 1u);   // length
  le32(0);                                                    // crc
  StatusOr<int> frames = DrainFrames(header);
  ASSERT_FALSE(frames.ok());
  EXPECT_EQ(frames.status().code(), StatusCode::kInvalidArgument);
}

// A record that builds hash families from its header — one sign family per
// AGMS cell, two families per hash-sketch table — charges them against the
// cap with its counters. Under a cap of 1000, 100 cells or tables (100
// counters) are refused by the header check, before any family is built or
// a counter read; at the default cap the same header-only records pass it
// and are refused as truncated.
TEST(SerialLimitsTest, HashFamiliesCountAgainstTheCap) {
  const std::vector<std::string> headers = {
      "skimjoin.agms_sketch v2\n100 1 7\n",
      "skimjoin.hash_sketch v2\n100 1 7\n"};
  const auto load = [](const std::string& record) -> Status {
    std::stringstream in(record);
    if (record.find("agms") != std::string::npos) {
      return sketch::AgmsSketch::DeserializeFrom(in).status();
    }
    return sketch::HashSketch::DeserializeFrom(in).status();
  };
  sketch::SetMaxDeserializeCounters(1000);
  for (const std::string& record : headers) {
    const Status status = load(record);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << record;
    EXPECT_NE(status.message().find("deserialization cap"), std::string::npos)
        << record << ": " << status.ToString();
  }
  sketch::SetMaxDeserializeCounters(0);
  for (const std::string& record : headers) {
    const Status status = load(record);
    EXPECT_EQ(status.code(), StatusCode::kInvalidArgument) << record;
    EXPECT_NE(status.message().find("truncated"), std::string::npos)
        << record << ": " << status.ToString();
  }
}

TEST(SerialLimitsTest, CapIsConfigurableAndRestorable) {
  auto sketch = *sketch::HashSketch::Create({4, 1024}, 1);
  const std::string record = Serialized(sketch);

  // Tighten the cap below this record's 4096 counters: now rejected.
  sketch::SetMaxDeserializeCounters(1000);
  EXPECT_EQ(sketch::MaxDeserializeCounters(), 1000u);
  {
    std::stringstream in(record);
    StatusOr<sketch::HashSketch> result =
        sketch::HashSketch::DeserializeFrom(in);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
  }

  // 0 restores the default, and the record loads again.
  sketch::SetMaxDeserializeCounters(0);
  EXPECT_EQ(sketch::MaxDeserializeCounters(),
            sketch::kDefaultMaxDeserializeCounters);
  std::stringstream in(record);
  EXPECT_TRUE(sketch::HashSketch::DeserializeFrom(in).ok());
}

}  // namespace
}  // namespace skimjoin
