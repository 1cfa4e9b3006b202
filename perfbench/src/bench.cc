#include "bench.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <fstream>
#include <utility>

#include "stream/zipf.h"
#include "util/random.h"

namespace perfbench {

void Report::Metric(const std::string& name, double value,
                    const std::string& unit, const std::string& note) {
  if (Has(name)) return;
  rows_.push_back({name, value, unit, note});
}

bool Report::Has(const std::string& name) const {
  return std::any_of(rows_.begin(), rows_.end(),
                     [&](const Row& row) { return row.name == name; });
}

void Report::Op(const Status& status, const char* what) {
  ++attempted_;
  if (status.ok()) return;
  ++failed_;
  if (failures_.size() < 20) {
    failures_.push_back(std::string(what) + ": " + status.ToString());
  }
}

void Report::Check(bool ok, const std::string& what) {
  ++attempted_;
  if (ok) return;
  ++failed_;
  if (failures_.size() < 20) failures_.push_back("check failed: " + what);
}

int32_t Tracer::Begin(const char* name, uint64_t work) {
  const int32_t parent = open_.empty() ? -1 : open_.back();
  const auto id = static_cast<int32_t>(spans_.size());
  spans_.push_back({name, NowNs(), 0, parent, work});
  open_.push_back(id);
  return id;
}

void Tracer::End(int32_t id) {
  spans_[static_cast<size_t>(id)].end_ns = NowNs();
  if (!open_.empty() && open_.back() == id) open_.pop_back();
}

Tracer::Totals Tracer::Sum(const std::string& name) const {
  Totals totals;
  for (const Span& span : spans_) {
    if (name != span.name) continue;
    totals.ns += static_cast<double>(span.end_ns - span.start_ns);
    totals.work += static_cast<double>(span.work);
    ++totals.count;
  }
  return totals;
}

std::vector<double> Tracer::Durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& span : spans_) {
    if (name == span.name) {
      out.push_back(static_cast<double>(span.end_ns - span.start_ns));
    }
  }
  return out;
}

Status Tracer::WriteJson(const std::string& path,
                         const std::string& workload) const {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return skimjoin::IoError("cannot write span dump " + path);
  const int64_t origin = spans_.empty() ? 0 : spans_.front().start_ns;
  out << "{\"workload\":\"" << workload << "\",\"spans\":[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"id\":" << i << ",\"name\":\""
        << s.name << "\",\"start_ns\":" << (s.start_ns - origin)
        << ",\"end_ns\":" << (s.end_ns - origin) << ",\"parent\":" << s.parent
        << ",\"work\":" << s.work << "}";
  }
  out << "\n]}\n";
  out.close();
  if (!out) return skimjoin::IoError("short write to span dump " + path);
  return skimjoin::OkStatus();
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::vector<double> RateWindows::Rates() const {
  std::vector<double> rates;
  for (size_t at = 0; at < calls_.size(); at += per_window_) {
    const size_t end = std::min(calls_.size(), at + per_window_);
    if (at > 0 && 2 * (end - at) < per_window_) break;
    double elements = 0;
    double ns = 0;
    for (size_t i = at; i < end; ++i) {
      elements += calls_[i].elements;
      ns += calls_[i].ns;
    }
    if (ns > 0) rates.push_back(elements / ns * 1e3);
  }
  return rates;
}

Tail TailOf(std::vector<double> values) {
  Tail tail;
  tail.samples = values.size();
  if (values.empty()) return tail;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  tail.beyond = std::min<size_t>(10, n - 1);
  tail.value = values[n - 1 - tail.beyond];
  tail.percentile =
      100.0 * static_cast<double>(n - tail.beyond) / static_cast<double>(n);
  return tail;
}

double RatioError(double estimate, double exact) {
  constexpr double kCap = 10.0;
  if (estimate == exact) return 0.0;
  if (estimate <= 0 || exact <= 0) return kCap;
  return std::min(kCap,
                  std::max(estimate, exact) / std::min(estimate, exact) - 1.0);
}

std::vector<StreamUpdate> GenerateStream(uint64_t domain, double z,
                                         uint64_t shift, uint64_t count,
                                         double delete_ratio, uint64_t seed) {
  const skimjoin::stream::ZipfDistribution zipf(domain, z, shift);
  skimjoin::Rng rng(seed);
  std::vector<StreamUpdate> out;
  out.reserve(count);
  std::vector<uint64_t> live;
  if (delete_ratio > 0) live.reserve(count);
  while (out.size() < count) {
    if (!live.empty() && rng.NextDouble() < delete_ratio) {
      const uint64_t i = rng.NextUint64Below(live.size());
      out.push_back({live[i], -1, 0});
      live[i] = live.back();
      live.pop_back();
      continue;
    }
    const uint64_t value = zipf.Sample(&rng);
    if (delete_ratio > 0) live.push_back(value);
    out.push_back({value, 1, 0});
  }
  return out;
}

std::span<const StreamUpdate> BatchCycle::Next() {
  if (pos_ + batch_ > pool_->size()) pos_ = begin_;
  std::span<const StreamUpdate> batch(pool_->data() + pos_, batch_);
  pos_ += batch_;
  return batch;
}

void ApplyTo(skimjoin::stream::FrequencyVector* reference,
             std::span<const StreamUpdate> batch) {
  for (const StreamUpdate& u : batch) reference->Add(u.value, u.count);
}

double SynopsisKiB(const skimjoin::query::Engine& engine) {
  double bytes = 0;
  for (const auto& [name, value] : engine.MetricsSnapshot().gauges) {
    if (name.rfind("query.", 0) == 0 &&
        name.size() > 13 &&
        name.compare(name.size() - 13, 13, ".memory_bytes") == 0) {
      bytes += value;
    }
  }
  return bytes / 1024.0;
}

namespace {
volatile uint64_t g_kept = 0;
}  // namespace

void KeepAlive(uint64_t value) { g_kept = g_kept + value; }

CpuRotation::CpuRotation() {
  CPU_ZERO(&original_);
  if (sched_getaffinity(0, sizeof(original_), &original_) != 0) return;
  restore_ = true;
  for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
    if (CPU_ISSET(cpu, &original_)) cpus_.push_back(cpu);
  }
}

CpuRotation::~CpuRotation() {
  if (restore_) sched_setaffinity(0, sizeof(original_), &original_);
}

void CpuRotation::Tick() {
  constexpr int64_t kSliceNs = 100'000'000;
  const int64_t now = NowNs();
  if (cpus_.size() < 2 || now - moved_ns_ < kSliceNs) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus_[next_], &one);
  sched_setaffinity(0, sizeof(one), &one);
  next_ = (next_ + 1) % cpus_.size();
  moved_ns_ = now;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
