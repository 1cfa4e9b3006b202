#include "sketch/serial_limits.h"

#include <atomic>
#include <string>

namespace skimjoin {
namespace sketch {

namespace {

std::atomic<uint64_t>& CapStorage() {
  static std::atomic<uint64_t> cap{kDefaultMaxDeserializeCounters};
  return cap;
}

}  // namespace

uint64_t MaxDeserializeCounters() {
  return CapStorage().load(std::memory_order_relaxed);
}

void SetMaxDeserializeCounters(uint64_t cap) {
  CapStorage().store(cap == 0 ? kDefaultMaxDeserializeCounters : cap,
                     std::memory_order_relaxed);
}

Status CheckDeserializeDims(uint64_t rows, uint64_t cols, const char* what) {
  if (rows < 1 || cols < 1) {
    return InvalidArgumentError(std::string(what) +
                                " record header has a zero dimension");
  }
  const uint64_t cap = MaxDeserializeCounters();
  // rows * cols could wrap; divide instead of multiplying.
  if (rows > cap / cols) {
    return InvalidArgumentError(
        std::string(what) + " record header claims " + std::to_string(rows) +
        " x " + std::to_string(cols) +
        " counters, above the deserialization cap of " + std::to_string(cap));
  }
  return OkStatus();
}

Status CheckDeserializeFootprint(uint64_t rows, uint64_t cols,
                                 uint64_t families_per_row, const char* what) {
  SKIMJOIN_RETURN_IF_ERROR(CheckDeserializeDims(rows, cols, what));
  const uint64_t cap = MaxDeserializeCounters();
  // cols <= cap now, so the row's words cannot wrap once its families fit.
  if (families_per_row > cap / kWordsPerHashFamily ||
      rows > cap / (cols + families_per_row * kWordsPerHashFamily)) {
    return InvalidArgumentError(
        std::string(what) + " record header claims " + std::to_string(rows) +
        " x " + std::to_string(cols) + " counters with " +
        std::to_string(families_per_row) +
        " hash families per row, above the deserialization cap of " +
        std::to_string(cap) + " words");
  }
  return OkStatus();
}

void WriteCounterBlock(std::ostream& out, std::span<const int64_t> counters) {
  for (size_t i = 0; i < counters.size(); ++i) {
    out << counters[i] << (i + 1 == counters.size() ? '\n' : ' ');
  }
  out << "end\n";
}

Status ReadCounterBlock(std::istream& in, std::span<int64_t> counters,
                        const char* what) {
  for (int64_t& counter : counters) {
    if (!(in >> counter)) {
      return InvalidArgumentError(std::string("truncated ") + what +
                                  " counter block");
    }
  }
  std::string sentinel;
  if (!(in >> sentinel) || sentinel != "end") {
    return InvalidArgumentError(std::string(what) +
                                " record missing its end sentinel");
  }
  return OkStatus();
}

}  // namespace sketch
}  // namespace skimjoin
