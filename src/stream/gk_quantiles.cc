#include "stream/gk_quantiles.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <string>

#include "util/logging.h"

namespace skimjoin {
namespace stream {

GkQuantileSummary::GkQuantileSummary(double epsilon) : epsilon_(epsilon) {}

StatusOr<GkQuantileSummary> GkQuantileSummary::Create(double epsilon) {
  if (!(epsilon > 0.0 && epsilon <= 0.5)) {
    return InvalidArgumentError("GK epsilon must be in (0, 0.5]");
  }
  return GkQuantileSummary(epsilon);
}

void GkQuantileSummary::Insert(uint64_t value) {
  ++count_;
  const auto band =
      static_cast<int64_t>(std::floor(2.0 * epsilon_ *
                                      static_cast<double>(count_)));
  // Position: first tuple with a strictly larger value.
  const auto it = std::upper_bound(
      tuples_.begin(), tuples_.end(), value,
      [](uint64_t v, const Tuple& t) { return v < t.value; });
  Tuple inserted{value, 1, 0};
  if (it != tuples_.begin() && it != tuples_.end()) {
    // Interior insert: inherits the maximum allowed uncertainty.
    inserted.delta = std::max<int64_t>(band - 1, 0);
  }
  tuples_.insert(it, inserted);

  // Compress periodically (every ~1/(2ε) inserts keeps amortized cost low).
  const auto period =
      std::max<int64_t>(1, static_cast<int64_t>(1.0 / (2.0 * epsilon_)));
  if (count_ % period == 0) Compress();
}

void GkQuantileSummary::Compress() {
  if (tuples_.size() < 3) return;
  const auto band = static_cast<int64_t>(
      std::floor(2.0 * epsilon_ * static_cast<double>(count_)));
  std::vector<Tuple> compressed;
  compressed.reserve(tuples_.size());
  compressed.push_back(tuples_.front());
  // Sweep left to right, folding each tuple into its successor when the
  // combined uncertainty stays within the band. The first and last tuples
  // (stream extremes) are always kept.
  for (size_t i = 1; i + 1 < tuples_.size(); ++i) {
    const Tuple& current = tuples_[i];
    const Tuple& next = tuples_[i + 1];
    if (current.g + next.g + next.delta <= band) {
      // Merge `current` into `next` (the fold accumulates in tuples_ so
      // later merges see the combined g).
      tuples_[i + 1].g += current.g;
    } else {
      compressed.push_back(current);
    }
  }
  compressed.push_back(tuples_.back());
  tuples_ = std::move(compressed);
}

Status GkQuantileSummary::SerializeTo(std::ostream& out) const {
  const auto saved_precision = out.precision();
  out.precision(std::numeric_limits<double>::max_digits10);
  out << "skimjoin.gk_quantiles v1\n"
      << epsilon_ << ' ' << count_ << ' ' << tuples_.size() << '\n';
  out.precision(saved_precision);
  for (const Tuple& tuple : tuples_) {
    out << tuple.value << ' ' << tuple.g << ' ' << tuple.delta << '\n';
  }
  out << "end\n";
  if (!out) return IoError("GK-quantile serialization failed");
  return OkStatus();
}

StatusOr<GkQuantileSummary> GkQuantileSummary::DeserializeFrom(
    std::istream& in) {
  std::string tag, version;
  if (!(in >> tag >> version) || tag != "skimjoin.gk_quantiles" ||
      version != "v1") {
    return InvalidArgumentError("not a skimjoin gk-quantiles v1 record");
  }
  double epsilon = 0.0;
  int64_t count = 0;
  uint64_t tuple_count = 0;
  if (!(in >> epsilon >> count >> tuple_count)) {
    return InvalidArgumentError("malformed gk-quantiles header");
  }
  StatusOr<GkQuantileSummary> summary = GkQuantileSummary::Create(epsilon);
  SKIMJOIN_RETURN_IF_ERROR(summary.status());
  // Each insert adds at most one tuple and compression only removes, so a
  // valid record never holds more tuples than observations. Both counts
  // come from the same untrusted header, so neither sizes an allocation:
  // tuples grow as they are read, and a short record fails on the read.
  if (count < 0 || tuple_count > static_cast<uint64_t>(count)) {
    return InvalidArgumentError("gk-quantiles record has a bad tuple count");
  }
  summary->count_ = count;
  uint64_t previous_value = 0;
  for (uint64_t i = 0; i < tuple_count; ++i) {
    Tuple tuple{};
    if (!(in >> tuple.value >> tuple.g >> tuple.delta)) {
      return InvalidArgumentError("truncated gk-quantiles tuple block");
    }
    if (i > 0 && tuple.value < previous_value) {
      return InvalidArgumentError("gk-quantiles tuples out of order");
    }
    if (tuple.g < 0 || tuple.delta < 0) {
      return InvalidArgumentError("gk-quantiles tuple has negative ranks");
    }
    previous_value = tuple.value;
    summary->tuples_.push_back(tuple);
  }
  std::string sentinel;
  if (!(in >> sentinel) || sentinel != "end") {
    return InvalidArgumentError(
        "gk-quantiles record missing its end sentinel");
  }
  return summary;
}

StatusOr<uint64_t> GkQuantileSummary::Quantile(double phi) const {
  if (!(phi > 0.0 && phi <= 1.0)) {
    return InvalidArgumentError("phi must be in (0, 1]");
  }
  if (tuples_.empty()) {
    return FailedPreconditionError("quantile of an empty summary");
  }
  const auto rank = static_cast<int64_t>(
      std::ceil(phi * static_cast<double>(count_)));
  const auto slack = static_cast<int64_t>(
      std::ceil(epsilon_ * static_cast<double>(count_)));
  int64_t min_rank = 0;
  for (size_t i = 0; i < tuples_.size(); ++i) {
    min_rank += tuples_[i].g;
    const int64_t max_rank = min_rank + tuples_[i].delta;
    if (max_rank >= rank + slack) {
      return tuples_[i > 0 ? i - 1 : 0].value;
    }
  }
  return tuples_.back().value;
}

uint64_t GkQuantileSummary::MemoryBytes() const {
  return sizeof(*this) + tuples_.capacity() * sizeof(Tuple);
}

}  // namespace stream
}  // namespace skimjoin
