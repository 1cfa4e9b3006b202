#include "dist/frame.h"

#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "util/durable_file.h"
#include "util/failpoint.h"

namespace skimjoin {
namespace dist {

namespace {

constexpr char kDeadlinePrefix[] = "deadline exceeded";

Status DeadlineError(const char* what) {
  return Status(StatusCode::kIoError,
                std::string(kDeadlinePrefix) + " while " + what);
}

void PutU32(std::string* out, uint32_t value) {
  out->push_back(static_cast<char>(value & 0xFF));
  out->push_back(static_cast<char>((value >> 8) & 0xFF));
  out->push_back(static_cast<char>((value >> 16) & 0xFF));
  out->push_back(static_cast<char>((value >> 24) & 0xFF));
}

uint32_t GetU32(std::string_view bytes, size_t offset) {
  return static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset])) |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset + 1]))
             << 8 |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset + 2]))
             << 16 |
         static_cast<uint32_t>(static_cast<unsigned char>(bytes[offset + 3]))
             << 24;
}

void PutU64(std::string* out, uint64_t value) {
  for (int shift = 0; shift < 64; shift += 8) {
    out->push_back(static_cast<char>((value >> shift) & 0xFF));
  }
}

uint64_t GetU64(std::string_view bytes, size_t offset) {
  uint64_t value = 0;
  for (int i = 7; i >= 0; --i) {
    value = (value << 8) |
            static_cast<unsigned char>(bytes[offset + static_cast<size_t>(i)]);
  }
  return value;
}

// Type word, then the three trace-context words, then the payload — every
// header byte past the length word is covered.
uint32_t FrameCrc(uint32_t type, uint64_t trace_id, uint64_t span_id,
                  uint64_t parent_span_id, std::string_view payload) {
  std::string covered;
  covered.reserve(28);
  PutU32(&covered, type);
  PutU64(&covered, trace_id);
  PutU64(&covered, span_id);
  PutU64(&covered, parent_span_id);
  return util::Crc32c(payload, util::Crc32c(covered));
}

Status SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    return IoError(std::string("fcntl(O_NONBLOCK) failed: ") +
                   std::strerror(errno));
  }
  return OkStatus();
}

/// Waits for `events` on `fd` until `deadline`. OK when ready; a
/// deadline-exceeded status otherwise.
Status WaitReady(int fd, short events, Deadline deadline, const char* what) {
  while (true) {
    const auto now = std::chrono::steady_clock::now();
    if (now >= deadline) return DeadlineError(what);
    const auto remaining =
        std::chrono::duration_cast<std::chrono::milliseconds>(deadline - now);
    // poll() rounds toward zero; always wait at least 1ms so a sub-ms
    // remainder does not degenerate into a busy spin.
    const int timeout_ms =
        static_cast<int>(std::max<int64_t>(1, remaining.count()));
    struct pollfd pfd;
    pfd.fd = fd;
    pfd.events = events;
    pfd.revents = 0;
    const int ready = ::poll(&pfd, 1, timeout_ms);
    if (ready < 0) {
      if (errno == EINTR) continue;
      return IoError(std::string("poll failed: ") + std::strerror(errno));
    }
    if (ready > 0) return OkStatus();
    // Timed out this round; loop re-checks the deadline.
  }
}

Status FillSockaddr(const std::string& socket_path, sockaddr_un* addr) {
  if (socket_path.empty() ||
      socket_path.size() >= sizeof(addr->sun_path)) {
    return InvalidArgumentError("unix socket path empty or too long: '" +
                                socket_path + "'");
  }
  std::memset(addr, 0, sizeof(*addr));
  addr->sun_family = AF_UNIX;
  std::memcpy(addr->sun_path, socket_path.c_str(), socket_path.size() + 1);
  return OkStatus();
}

}  // namespace

std::string EncodeFrame(uint32_t type, std::string_view payload,
                        uint64_t trace_id, uint64_t span_id,
                        uint64_t parent_span_id) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutU32(&frame, kFrameMagic);
  PutU32(&frame, type);
  PutU32(&frame, static_cast<uint32_t>(payload.size()));
  PutU32(&frame, FrameCrc(type, trace_id, span_id, parent_span_id, payload));
  PutU64(&frame, trace_id);
  PutU64(&frame, span_id);
  PutU64(&frame, parent_span_id);
  frame.append(payload);
  return frame;
}

StatusOr<std::optional<Frame>> TryDecodeFrame(std::string_view buffer,
                                              size_t* consumed) {
  *consumed = 0;
  // A partial header can still be rejected early once the magic is
  // known-wrong — no point waiting for a full header of garbage.
  for (size_t i = 0; i < buffer.size() && i < 4; ++i) {
    if (static_cast<unsigned char>(buffer[i]) !=
        ((kFrameMagic >> (8 * i)) & 0xFF)) {
      return InvalidArgumentError("bad frame magic");
    }
  }
  // The length word is checked as soon as it arrives, before the rest of
  // the header or any payload is buffered.
  if (buffer.size() < 12) return std::optional<Frame>();
  const uint32_t payload_len = GetU32(buffer, 8);
  if (payload_len > kMaxFramePayload) {
    return InvalidArgumentError(
        "frame declares " + std::to_string(payload_len) +
        " payload bytes, above the " + std::to_string(kMaxFramePayload) +
        " cap");
  }
  if (buffer.size() < kFrameHeaderBytes + payload_len) {
    return std::optional<Frame>();
  }
  Frame frame;
  frame.type = GetU32(buffer, 4);
  const uint32_t declared_crc = GetU32(buffer, 12);
  frame.trace_id = GetU64(buffer, 16);
  frame.span_id = GetU64(buffer, 24);
  frame.parent_span_id = GetU64(buffer, 32);
  const std::string_view payload =
      buffer.substr(kFrameHeaderBytes, payload_len);
  if (FrameCrc(frame.type, frame.trace_id, frame.span_id,
               frame.parent_span_id, payload) != declared_crc) {
    return InvalidArgumentError("frame crc mismatch");
  }
  frame.payload.assign(payload);
  *consumed = kFrameHeaderBytes + payload_len;
  return std::optional<Frame>(std::move(frame));
}

Deadline DeadlineAfter(std::chrono::milliseconds timeout) {
  return std::chrono::steady_clock::now() + timeout;
}

bool IsDeadlineExceeded(const Status& status) {
  return !status.ok() && status.message().rfind(kDeadlinePrefix, 0) == 0;
}

FrameChannel::FrameChannel(int fd) : fd_(fd) {
  if (fd_ >= 0) {
    const Status status = SetNonBlocking(fd_);
    (void)status;  // poll-based I/O still works on a blocking fd
  }
}

FrameChannel::FrameChannel(FrameChannel&& other) noexcept
    : fd_(other.fd_), buffer_(std::move(other.buffer_)) {
  other.fd_ = -1;
  other.buffer_.clear();
}

FrameChannel& FrameChannel::operator=(FrameChannel&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    buffer_ = std::move(other.buffer_);
    other.fd_ = -1;
    other.buffer_.clear();
  }
  return *this;
}

FrameChannel::~FrameChannel() { Close(); }

void FrameChannel::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  buffer_.clear();
}

Status FrameChannel::Send(uint32_t type, std::string_view payload,
                          Deadline deadline, uint64_t trace_id,
                          uint64_t span_id, uint64_t parent_span_id) {
  if (fd_ < 0) return FailedPreconditionError("send on a closed channel");
  std::string frame =
      EncodeFrame(type, payload, trace_id, span_id, parent_span_id);
  // dist:frame-crc corrupts one CRC byte but SENDS THE WHOLE FRAME — the
  // fault this models is in-flight corruption, which only the receiver's
  // validation can catch.
  if (!failpoint::Check("dist:frame-crc").ok() && frame.size() > 12) {
    frame[12] = static_cast<char>(frame[12] ^ 0x01);
  }
  // dist:send models a torn send: only `allowed_bytes` reach the socket and
  // the injected status surfaces afterwards, leaving a half frame on the
  // wire exactly as a mid-send crash would.
  const auto outcome = failpoint::CheckWrite("dist:send", frame.size());
  size_t offset = 0;
  while (offset < outcome.allowed_bytes) {
    SKIMJOIN_RETURN_IF_ERROR(WaitReady(fd_, POLLOUT, deadline, "sending frame"));
    const ssize_t written =
        ::send(fd_, frame.data() + offset, outcome.allowed_bytes - offset,
               MSG_NOSIGNAL);
    if (written < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return IoError(std::string("send failed: ") + std::strerror(errno));
    }
    offset += static_cast<size_t>(written);
  }
  return outcome.status;
}

StatusOr<Frame> FrameChannel::Receive(Deadline deadline) {
  if (fd_ < 0) return FailedPreconditionError("receive on a closed channel");
  SKIMJOIN_RETURN_IF_ERROR(failpoint::Check("dist:recv"));
  while (true) {
    size_t consumed = 0;
    StatusOr<std::optional<Frame>> decoded = TryDecodeFrame(buffer_, &consumed);
    SKIMJOIN_RETURN_IF_ERROR(decoded.status());
    if (decoded->has_value()) {
      buffer_.erase(0, consumed);
      return std::move(**decoded);
    }
    SKIMJOIN_RETURN_IF_ERROR(
        WaitReady(fd_, POLLIN, deadline, "receiving frame"));
    char chunk[4096];
    const ssize_t got = ::recv(fd_, chunk, sizeof(chunk), 0);
    if (got < 0) {
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      return IoError(std::string("recv failed: ") + std::strerror(errno));
    }
    if (got == 0) return IoError("connection closed by peer");
    buffer_.append(chunk, static_cast<size_t>(got));
  }
}

StatusOr<FrameChannel> ConnectUnix(const std::string& socket_path,
                                   Deadline deadline) {
  sockaddr_un addr;
  SKIMJOIN_RETURN_IF_ERROR(FillSockaddr(socket_path, &addr));
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return IoError(std::string("socket() failed: ") + std::strerror(errno));
  }
  FrameChannel channel(fd);  // takes ownership; sets nonblocking
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) <
      0) {
    if (errno != EINPROGRESS && errno != EAGAIN) {
      return IoError("connect to '" + socket_path +
                     "' failed: " + std::strerror(errno));
    }
    SKIMJOIN_RETURN_IF_ERROR(
        WaitReady(fd, POLLOUT, deadline, "connecting to worker"));
    int err = 0;
    socklen_t len = sizeof(err);
    if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) < 0 || err != 0) {
      return IoError("connect to '" + socket_path +
                     "' failed: " + std::strerror(err != 0 ? err : errno));
    }
  }
  return channel;
}

Listener::Listener(int fd, std::string path)
    : fd_(fd), path_(std::move(path)) {}

Listener::Listener(Listener&& other) noexcept
    : fd_(other.fd_), path_(std::move(other.path_)) {
  other.fd_ = -1;
  other.path_.clear();
}

Listener& Listener::operator=(Listener&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    path_ = std::move(other.path_);
    other.fd_ = -1;
    other.path_.clear();
  }
  return *this;
}

Listener::~Listener() { Close(); }

void Listener::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  if (!path_.empty()) {
    ::unlink(path_.c_str());
    path_.clear();
  }
}

StatusOr<Listener> Listener::Create(const std::string& socket_path) {
  sockaddr_un addr;
  SKIMJOIN_RETURN_IF_ERROR(FillSockaddr(socket_path, &addr));
  const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
  if (fd < 0) {
    return IoError(std::string("socket() failed: ") + std::strerror(errno));
  }
  Listener listener(fd, socket_path);
  // A restarted worker must re-adopt its advertised address; a stale socket
  // file from the previous incarnation would otherwise fail the bind.
  ::unlink(socket_path.c_str());
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) < 0) {
    return IoError("bind to '" + socket_path +
                   "' failed: " + std::strerror(errno));
  }
  if (::listen(fd, 16) < 0) {
    return IoError(std::string("listen failed: ") + std::strerror(errno));
  }
  SKIMJOIN_RETURN_IF_ERROR(SetNonBlocking(fd));
  return listener;
}

StatusOr<FrameChannel> Listener::Accept(Deadline deadline) {
  if (fd_ < 0) return FailedPreconditionError("accept on a closed listener");
  while (true) {
    const int conn = ::accept(fd_, nullptr, nullptr);
    if (conn >= 0) return FrameChannel(conn);
    if (errno == EINTR) continue;
    if (errno != EAGAIN && errno != EWOULDBLOCK) {
      return IoError(std::string("accept failed: ") + std::strerror(errno));
    }
    SKIMJOIN_RETURN_IF_ERROR(
        WaitReady(fd_, POLLIN, deadline, "accepting connection"));
  }
}

}  // namespace dist
}  // namespace skimjoin
