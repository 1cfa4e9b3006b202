// The wire layer of the distributed skimjoin runtime (DESIGN.md §12): a
// CRC-framed, length-prefixed message format over Unix-domain stream
// sockets, with every blocking operation bounded by an explicit deadline.
//
// Frame layout (u32 words then u64 words, all little-endian):
//   [magic 'SKJ2'][type][payload_len][crc][trace_id][span_id]
//   [parent_span_id][payload]
// where the CRC (crc32c) covers type_le || trace_id_le || span_id_le ||
// parent_span_id_le || payload. The three ids carry a Dapper-style trace
// context; an untraced frame carries zeros.
//
// The length word is validated BEFORE the rest of the 40-byte header or
// the payload is buffered: a frame declaring more than kMaxFramePayload
// bytes is rejected without allocation, so a corrupt length word can never
// balloon memory. The CRC covers everything past the length word, so a
// flipped bit anywhere past the magic fails closed (the magic itself is
// the resync sentinel — a flipped magic byte reads as "not a frame at
// all").
//
// Failure injection mirrors util/durable_file's durable:* discipline —
// hooks compiled into the shipped path, zero-cost while inactive:
//   dist:send       torn frame: CheckWrite caps the bytes handed to the
//                   socket, then surfaces the injected status
//   dist:recv       injected receive failure at Receive entry
//   dist:frame-crc  corrupts one CRC byte of an outgoing frame (the frame
//                   is sent whole; the RECEIVER's validation must catch it)
//
// Deadlines are steady-clock points, not durations, so one deadline bounds
// a whole multi-step exchange (connect + send + receive) end to end. A
// missed deadline surfaces as a Status whose message starts with
// "deadline exceeded" (IsDeadlineExceeded) — callers distinguish slowness
// from corruption without a new status code.

#ifndef SKIMJOIN_DIST_FRAME_H_
#define SKIMJOIN_DIST_FRAME_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "util/status.h"

namespace skimjoin {
namespace dist {

/// 'SKJ2' as a little-endian u32.
constexpr uint32_t kFrameMagic = 0x324A4B53;
constexpr size_t kFrameHeaderBytes = 40;
/// Hard payload cap, enforced before any payload allocation.
constexpr size_t kMaxFramePayload = size_t{16} << 20;

/// One decoded frame. The trace ids are all-zero for an untraced frame.
struct Frame {
  uint32_t type = 0;
  std::string payload;
  uint64_t trace_id = 0;
  uint64_t span_id = 0;
  uint64_t parent_span_id = 0;
};

/// Encodes one complete frame (header + payload).
std::string EncodeFrame(uint32_t type, std::string_view payload,
                        uint64_t trace_id = 0, uint64_t span_id = 0,
                        uint64_t parent_span_id = 0);

/// Incremental decoder over a receive buffer. Returns:
///   * a Frame and sets *consumed to the bytes it spans — a complete,
///     CRC-valid frame was at the front of `buffer`;
///   * nullopt with *consumed == 0 — the buffer holds a valid prefix but
///     not yet a whole frame (read more bytes and retry);
///   * InvalidArgument — the buffer can never become a valid frame (bad
///     magic, oversized length, CRC mismatch). The connection is poisoned.
StatusOr<std::optional<Frame>> TryDecodeFrame(std::string_view buffer,
                                              size_t* consumed);

/// Deadlines are absolute points on the steady clock.
using Deadline = std::chrono::steady_clock::time_point;

/// The deadline `timeout` from now.
Deadline DeadlineAfter(std::chrono::milliseconds timeout);

/// True when `status` reports a missed deadline (message-prefix tagged,
/// same scheme as failpoint::IsSimulatedCrash).
bool IsDeadlineExceeded(const Status& status);

/// A connected stream socket speaking frames. Move-only; owns the fd
/// (nonblocking) and an internal receive buffer.
class FrameChannel {
 public:
  FrameChannel() = default;
  /// Takes ownership of `fd` and switches it to nonblocking mode.
  explicit FrameChannel(int fd);

  FrameChannel(FrameChannel&& other) noexcept;
  FrameChannel& operator=(FrameChannel&& other) noexcept;
  FrameChannel(const FrameChannel&) = delete;
  FrameChannel& operator=(const FrameChannel&) = delete;
  ~FrameChannel();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  void Close();

  /// Sends one whole frame before `deadline`. On any error (deadline, peer
  /// gone, injected fault) the channel may hold a torn frame mid-wire and
  /// must not be reused — callers Close() and reconnect. The trace context
  /// rides in the frame header.
  Status Send(uint32_t type, std::string_view payload, Deadline deadline,
              uint64_t trace_id = 0, uint64_t span_id = 0,
              uint64_t parent_span_id = 0);

  /// Receives one whole frame before `deadline`. IoError with "connection
  /// closed by peer" on clean EOF; InvalidArgument (from TryDecodeFrame) on
  /// a corrupt byte stream.
  StatusOr<Frame> Receive(Deadline deadline);

  /// True when bytes already read off the socket are waiting in the
  /// internal buffer (a following frame, or a partial one).
  bool HasBufferedData() const { return !buffer_.empty(); }

 private:
  int fd_ = -1;
  std::string buffer_;
};

/// Connects to a Unix-domain listener. The whole connect (including the
/// in-progress wait on a nonblocking socket) is bounded by `deadline`.
StatusOr<FrameChannel> ConnectUnix(const std::string& socket_path,
                                   Deadline deadline);

/// A Unix-domain listening socket. Unlinks any stale socket file before
/// binding, so a restarted worker re-adopts its old address.
class Listener {
 public:
  static StatusOr<Listener> Create(const std::string& socket_path);

  /// An invalid (unbound) listener, for delayed initialization.
  Listener() = default;

  Listener(Listener&& other) noexcept;
  Listener& operator=(Listener&& other) noexcept;
  Listener(const Listener&) = delete;
  Listener& operator=(const Listener&) = delete;
  ~Listener();

  bool valid() const { return fd_ >= 0; }
  int fd() const { return fd_; }
  const std::string& path() const { return path_; }

  /// Accepts one pending connection, waiting at most until `deadline`
  /// ("deadline exceeded" when none arrives).
  StatusOr<FrameChannel> Accept(Deadline deadline);

 private:
  Listener(int fd, std::string path);
  void Close();

  int fd_ = -1;
  std::string path_;
};

}  // namespace dist
}  // namespace skimjoin

#endif  // SKIMJOIN_DIST_FRAME_H_
