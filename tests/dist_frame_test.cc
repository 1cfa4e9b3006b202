// Wire-layer tests for dist/frame: encode/decode roundtrips, corruption
// rejection (every-byte bit-flip and every-prefix truncation), channel I/O
// over socketpairs, deadline bounds, and the dist:* failpoints.

#include "dist/frame.h"

#include <sys/socket.h>

#include <chrono>
#include <string>
#include <utility>

#include "gtest/gtest.h"
#include "util/failpoint.h"

namespace skimjoin {
namespace dist {
namespace {

using std::chrono::milliseconds;
using std::chrono::steady_clock;

std::pair<FrameChannel, FrameChannel> LocalPair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
  return {FrameChannel(fds[0]), FrameChannel(fds[1])};
}

TEST(FrameCodec, RoundTripsTypeAndPayload) {
  const std::string payload = "hello skimmed sketches \x01\x00\xff";
  const std::string wire = EncodeFrame(42, payload);
  // Untraced frames use the one 40-byte header, with zero trace ids.
  EXPECT_EQ(wire.substr(0, 4), "SKJ2");
  ASSERT_EQ(kFrameHeaderBytes + payload.size(), wire.size());

  size_t consumed = 0;
  StatusOr<std::optional<Frame>> decoded = TryDecodeFrame(wire, &consumed);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_TRUE(decoded->has_value());
  EXPECT_EQ(42u, (*decoded)->type);
  EXPECT_EQ(payload, (*decoded)->payload);
  EXPECT_EQ(0u, (*decoded)->trace_id);
  EXPECT_EQ(0u, (*decoded)->span_id);
  EXPECT_EQ(0u, (*decoded)->parent_span_id);
  EXPECT_EQ(wire.size(), consumed);
}

TEST(FrameCodec, RoundTripsEmptyPayload) {
  const std::string wire = EncodeFrame(7, "");
  size_t consumed = 0;
  StatusOr<std::optional<Frame>> decoded = TryDecodeFrame(wire, &consumed);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_TRUE(decoded->has_value());
  EXPECT_EQ(7u, (*decoded)->type);
  EXPECT_TRUE((*decoded)->payload.empty());
}

TEST(FrameCodec, DecodesBackToBackFrames) {
  const std::string wire = EncodeFrame(1, "first") + EncodeFrame(2, "second");
  size_t consumed = 0;
  StatusOr<std::optional<Frame>> first = TryDecodeFrame(wire, &consumed);
  ASSERT_TRUE(first.ok() && first->has_value());
  EXPECT_EQ("first", (*first)->payload);

  StatusOr<std::optional<Frame>> second =
      TryDecodeFrame(std::string_view(wire).substr(consumed), &consumed);
  ASSERT_TRUE(second.ok() && second->has_value());
  EXPECT_EQ(2u, (*second)->type);
  EXPECT_EQ("second", (*second)->payload);
}

TEST(FrameCodec, EveryTruncationIsIncompleteNeverGarbage) {
  const std::string wire = EncodeFrame(9, "truncate me byte by byte");
  for (size_t len = 0; len < wire.size(); ++len) {
    size_t consumed = 1234;
    StatusOr<std::optional<Frame>> decoded =
        TryDecodeFrame(std::string_view(wire).substr(0, len), &consumed);
    ASSERT_TRUE(decoded.ok()) << "prefix " << len << ": " << decoded.status();
    EXPECT_FALSE(decoded->has_value()) << "prefix " << len;
    EXPECT_EQ(0u, consumed) << "prefix " << len;
  }
}

TEST(FrameCodec, EveryBitFlipIsRejected) {
  const std::string wire = EncodeFrame(3, "flip every byte of this frame");
  for (size_t i = 0; i < wire.size(); ++i) {
    for (const char flip : {char(0x01), char(0x80), char(0xff)}) {
      std::string corrupt = wire;
      corrupt[i] = static_cast<char>(corrupt[i] ^ flip);
      size_t consumed = 0;
      StatusOr<std::optional<Frame>> decoded =
          TryDecodeFrame(corrupt, &consumed);
      // A corrupted frame must never decode: either the decoder rejects it
      // outright (bad magic / bad length / CRC mismatch) or — when the flip
      // inflated the length word — it reports "incomplete" and keeps
      // waiting. It may not hand back a Frame.
      EXPECT_FALSE(decoded.ok() && decoded->has_value())
          << "byte " << i << " flip " << static_cast<int>(flip);
    }
  }
}

TEST(FrameCodec, OversizedLengthRejectedBeforeAllocation) {
  std::string wire = EncodeFrame(1, "x");
  // Stamp a payload length far past the cap into bytes 8..11.
  const uint32_t huge = static_cast<uint32_t>(kMaxFramePayload) + 1;
  for (int b = 0; b < 4; ++b) {
    wire[8 + b] = static_cast<char>((huge >> (8 * b)) & 0xff);
  }
  size_t consumed = 0;
  StatusOr<std::optional<Frame>> decoded = TryDecodeFrame(wire, &consumed);
  EXPECT_FALSE(decoded.ok());
}

TEST(FrameCodec, BadMagicRejectedEvenOnPartialHeader) {
  // Two bytes only, and the second already disagrees with 'SKJ2': the
  // decoder must poison the connection now, not wait for more bytes.
  const std::string junk = "XY";
  size_t consumed = 0;
  StatusOr<std::optional<Frame>> decoded = TryDecodeFrame(junk, &consumed);
  EXPECT_FALSE(decoded.ok());
  // The retired 16-byte 'SKJF' header is not a frame either.
  EXPECT_FALSE(TryDecodeFrame("SKJF", &consumed).ok());
}

// --- trace context header ---------------------------------------------------

TEST(FrameCodecTraced, RoundTripsTraceContext) {
  const std::string payload = "traced \x00\xff payload";
  const std::string wire =
      EncodeFrame(42, payload, 0x1111222233334444ull, 0x5555666677778888ull,
                  0x9999aaaabbbbccccull);
  EXPECT_EQ(wire.substr(0, 4), "SKJ2");
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + payload.size());

  size_t consumed = 0;
  StatusOr<std::optional<Frame>> decoded = TryDecodeFrame(wire, &consumed);
  ASSERT_TRUE(decoded.ok()) << decoded.status();
  ASSERT_TRUE(decoded->has_value());
  EXPECT_EQ(42u, (*decoded)->type);
  EXPECT_EQ(payload, (*decoded)->payload);
  EXPECT_EQ(0x1111222233334444ull, (*decoded)->trace_id);
  EXPECT_EQ(0x5555666677778888ull, (*decoded)->span_id);
  EXPECT_EQ(0x9999aaaabbbbccccull, (*decoded)->parent_span_id);
  EXPECT_EQ(wire.size(), consumed);
}

TEST(FrameCodecTraced, EveryTruncationIsIncompleteNeverGarbage) {
  const std::string wire = EncodeFrame(9, "truncate the traced frame", 1, 2, 3);
  for (size_t len = 0; len < wire.size(); ++len) {
    size_t consumed = 1234;
    StatusOr<std::optional<Frame>> decoded =
        TryDecodeFrame(std::string_view(wire).substr(0, len), &consumed);
    ASSERT_TRUE(decoded.ok()) << "prefix " << len << ": " << decoded.status();
    EXPECT_FALSE(decoded->has_value()) << "prefix " << len;
    EXPECT_EQ(0u, consumed) << "prefix " << len;
  }
}

TEST(FrameCodecTraced, EveryBitFlipIsRejected) {
  // The CRC must cover the trace ids too: a flipped bit anywhere in the
  // 40-byte header or payload may not decode to a Frame.
  const std::string wire = EncodeFrame(3, "flip the traced frame", 1, 2, 3);
  for (size_t i = 0; i < wire.size(); ++i) {
    for (const char flip : {char(0x01), char(0x80), char(0xff)}) {
      std::string corrupt = wire;
      corrupt[i] = static_cast<char>(corrupt[i] ^ flip);
      size_t consumed = 0;
      StatusOr<std::optional<Frame>> decoded =
          TryDecodeFrame(corrupt, &consumed);
      EXPECT_FALSE(decoded.ok() && decoded->has_value())
          << "byte " << i << " flip " << static_cast<int>(flip);
    }
  }
}

TEST(FrameChannelTest, SendCarriesTraceContextEndToEnd) {
  auto [left, right] = LocalPair();
  const Deadline deadline = DeadlineAfter(milliseconds(2000));
  ASSERT_TRUE(left.Send(5, "traced ping", deadline, 11, 22, 33).ok());
  StatusOr<Frame> got = right.Receive(deadline);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(5u, got->type);
  EXPECT_EQ("traced ping", got->payload);
  EXPECT_EQ(11u, got->trace_id);
  EXPECT_EQ(22u, got->span_id);
  EXPECT_EQ(33u, got->parent_span_id);
}

TEST(FrameChannelTest, SendReceiveRoundTrip) {
  auto [left, right] = LocalPair();
  const Deadline deadline = DeadlineAfter(milliseconds(2000));
  ASSERT_TRUE(left.Send(5, "ping payload", deadline).ok());
  StatusOr<Frame> got = right.Receive(deadline);
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ(5u, got->type);
  EXPECT_EQ("ping payload", got->payload);
}

TEST(FrameChannelTest, BuffersMultipleFramesAcrossOneRead) {
  auto [left, right] = LocalPair();
  const Deadline deadline = DeadlineAfter(milliseconds(2000));
  ASSERT_TRUE(left.Send(1, "a", deadline).ok());
  ASSERT_TRUE(left.Send(2, "bb", deadline).ok());
  ASSERT_TRUE(left.Send(3, "ccc", deadline).ok());
  for (uint32_t expected = 1; expected <= 3; ++expected) {
    StatusOr<Frame> got = right.Receive(deadline);
    ASSERT_TRUE(got.ok()) << got.status();
    EXPECT_EQ(expected, got->type);
    EXPECT_EQ(std::string(expected, static_cast<char>('a' + expected - 1)),
              got->payload);
  }
}

TEST(FrameChannelTest, ReceiveDeadlineIsBounded) {
  auto [left, right] = LocalPair();
  (void)left;
  const auto start = steady_clock::now();
  StatusOr<Frame> got = right.Receive(DeadlineAfter(milliseconds(50)));
  const auto elapsed = steady_clock::now() - start;
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(IsDeadlineExceeded(got.status())) << got.status();
  // Generous upper bound: the point is that it returns, not spins forever.
  EXPECT_LT(elapsed, milliseconds(2000));
}

TEST(FrameChannelTest, PeerCloseSurfacesAsConnectionClosed) {
  auto [left, right] = LocalPair();
  left.Close();
  StatusOr<Frame> got = right.Receive(DeadlineAfter(milliseconds(500)));
  ASSERT_FALSE(got.ok());
  EXPECT_NE(std::string::npos, got.status().message().find("closed"))
      << got.status();
}

TEST(FrameChannelTest, SendFailpointTearsTheFrame) {
  auto [left, right] = LocalPair();
  failpoint::Spec spec;
  spec.mode = failpoint::Mode::kTornWrite;
  spec.torn_bytes = 4;  // magic only — receiver starves mid-header
  failpoint::ScopedFailpoint guard("dist:send", spec);
  EXPECT_FALSE(left.Send(5, "payload", DeadlineAfter(milliseconds(500))).ok());
  // The receiver holds a valid prefix, so it waits (deadline) rather than
  // decoding garbage.
  StatusOr<Frame> got = right.Receive(DeadlineAfter(milliseconds(50)));
  ASSERT_FALSE(got.ok());
  EXPECT_TRUE(IsDeadlineExceeded(got.status())) << got.status();
}

TEST(FrameChannelTest, CrcFailpointIsCaughtByReceiver) {
  auto [left, right] = LocalPair();
  {
    failpoint::Spec spec;
    spec.mode = failpoint::Mode::kError;
    failpoint::ScopedFailpoint guard("dist:frame-crc", spec);
    // The sender does not fail — the frame goes out whole, corrupted.
    ASSERT_TRUE(
        left.Send(5, "payload", DeadlineAfter(milliseconds(500))).ok());
  }
  StatusOr<Frame> got = right.Receive(DeadlineAfter(milliseconds(500)));
  ASSERT_FALSE(got.ok());
  EXPECT_EQ(StatusCode::kInvalidArgument, got.status().code()) << got.status();
}

TEST(FrameChannelTest, RecvFailpointInjectsAtReceiveEntry) {
  auto [left, right] = LocalPair();
  ASSERT_TRUE(left.Send(5, "payload", DeadlineAfter(milliseconds(500))).ok());
  failpoint::Spec spec;
  spec.mode = failpoint::Mode::kError;
  failpoint::ScopedFailpoint guard("dist:recv", spec);
  EXPECT_FALSE(right.Receive(DeadlineAfter(milliseconds(500))).ok());
}

TEST(ListenerTest, AcceptAndExchange) {
  const std::string path = ::testing::TempDir() + "/dist_frame_listener.sock";
  StatusOr<Listener> listener = Listener::Create(path);
  ASSERT_TRUE(listener.ok()) << listener.status();

  StatusOr<FrameChannel> client =
      ConnectUnix(path, DeadlineAfter(milliseconds(2000)));
  ASSERT_TRUE(client.ok()) << client.status();
  StatusOr<FrameChannel> served =
      listener->Accept(DeadlineAfter(milliseconds(2000)));
  ASSERT_TRUE(served.ok()) << served.status();

  ASSERT_TRUE(
      client->Send(11, "over the socket", DeadlineAfter(milliseconds(2000)))
          .ok());
  StatusOr<Frame> got = served->Receive(DeadlineAfter(milliseconds(2000)));
  ASSERT_TRUE(got.ok()) << got.status();
  EXPECT_EQ("over the socket", got->payload);
}

TEST(ListenerTest, RebindsOverStaleSocketFile) {
  const std::string path = ::testing::TempDir() + "/dist_frame_stale.sock";
  {
    StatusOr<Listener> first = Listener::Create(path);
    ASSERT_TRUE(first.ok()) << first.status();
  }
  // First listener gone; a second Create on the same path must succeed
  // (restarted workers re-adopt their address).
  StatusOr<Listener> second = Listener::Create(path);
  EXPECT_TRUE(second.ok()) << second.status();
}

TEST(ListenerTest, AcceptDeadlineIsBounded) {
  const std::string path = ::testing::TempDir() + "/dist_frame_noconn.sock";
  StatusOr<Listener> listener = Listener::Create(path);
  ASSERT_TRUE(listener.ok()) << listener.status();
  StatusOr<FrameChannel> accepted =
      listener->Accept(DeadlineAfter(milliseconds(50)));
  ASSERT_FALSE(accepted.ok());
  EXPECT_TRUE(IsDeadlineExceeded(accepted.status())) << accepted.status();
}

TEST(ConnectTest, ConnectToMissingSocketFails) {
  StatusOr<FrameChannel> channel = ConnectUnix(
      ::testing::TempDir() + "/no_such_listener.sock",
      DeadlineAfter(milliseconds(200)));
  EXPECT_FALSE(channel.ok());
}

}  // namespace
}  // namespace dist
}  // namespace skimjoin
