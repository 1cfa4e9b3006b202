// Shared pieces of the skimjoin repository benchmark: options, the run
// report (metrics, operation accounting, output checks), the in-memory span
// tracer, latency statistics, and seeded input generation.
//
// Everything here lives outside the library: spans are recorded around
// calls into the library's public API, never inside it.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <sched.h>

#include <chrono>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "query/engine.h"
#include "stream/frequency_vector.h"
#include "util/status.h"

namespace perfbench {

using skimjoin::Status;
using skimjoin::query::StreamUpdate;

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Options {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Tiny sizes: every code path once, for the smoke check.
  bool smoke = false;
  /// Directory (inside the checkout) for sockets and the span dump.
  std::string scratch = ".bench_build/run";
};

/// One run's output: metrics, operation/failure accounting and context.
class Report {
 public:
  struct Row {
    std::string name;
    double value;
    std::string unit;
    std::string note;
  };

  /// Records a metric; a later call with the same name is ignored.
  void Metric(const std::string& name, double value, const std::string& unit,
              const std::string& note = "");
  bool Has(const std::string& name) const;

  /// Counts one engine/coordinator call; a non-OK status is a failed op.
  void Op(const Status& status, const char* what);
  /// Counts one output check; false is a failed op.
  void Check(bool ok, const std::string& what);

  void Context(const std::string& key, const std::string& value) {
    context_.emplace_back(key, value);
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<Row>& rows() const { return rows_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::vector<std::pair<std::string, std::string>>& context() const {
    return context_;
  }

 private:
  std::vector<Row> rows_;
  std::vector<std::string> failures_;
  std::vector<std::pair<std::string, std::string>> context_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

/// In-memory span recorder. A span has a name, start, end, the span open
/// when it began (its parent) and a work count (elements, values, bytes).
/// Spans stay in memory until WriteJson at the end of the run.
class Tracer {
 public:
  struct Span {
    const char* name;
    int64_t start_ns;
    int64_t end_ns;
    int32_t parent;
    uint64_t work;
  };

  int32_t Begin(const char* name, uint64_t work);
  void End(int32_t id);

  /// Total duration, total work and span count of every span named `name`.
  struct Totals {
    double ns = 0;
    double work = 0;
    uint64_t count = 0;
  };
  Totals Sum(const std::string& name) const;
  /// Durations (ns) of every span named `name`, in recording order.
  std::vector<double> Durations(const std::string& name) const;

  Status WriteJson(const std::string& path, const std::string& workload) const;

  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int32_t> open_;
};

/// RAII span; a null tracer records nothing.
class Scoped {
 public:
  Scoped(Tracer* tracer, const char* name, uint64_t work = 1)
      : tracer_(tracer), id_(tracer ? tracer->Begin(name, work) : -1) {}
  ~Scoped() {
    if (tracer_ != nullptr) tracer_->End(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  Tracer* tracer_;
  int32_t id_;
};

/// Runs `call` inside a span and returns its result.
template <typename Fn>
auto Traced(Tracer* tracer, const char* name, uint64_t work, Fn call) {
  Scoped span(tracer, name, work);
  return call();
}

double Median(std::vector<double> values);

/// Ingest throughput per window of consecutive calls. The reported figure
/// is the median over windows (see IngestRate in workloads.cc), so a burst
/// of interference on the host slows a few windows, not the figure.
class RateWindows {
 public:
  explicit RateWindows(size_t calls_per_window)
      : per_window_(calls_per_window) {}
  void Add(double elements, double ns) { calls_.push_back({elements, ns}); }
  /// Adds time (a closing flush) to the latest call.
  void AddTime(double ns) {
    if (!calls_.empty()) calls_.back().ns += ns;
  }
  /// Elements / ns of each window, in M elements/s. A trailing window
  /// shorter than half the others is dropped.
  std::vector<double> Rates() const;
  size_t calls_per_window() const { return per_window_; }

 private:
  struct Call {
    double elements;
    double ns;
  };
  size_t per_window_;
  std::vector<Call> calls_;
};

/// The highest percentile with at least ten samples beyond it: the 11th
/// largest sample, reported with its percentile and the sample count.
struct Tail {
  double value = 0;
  double percentile = 0;
  size_t samples = 0;
  size_t beyond = 0;  // samples above `value`: 10, or fewer in tiny runs
};
Tail TailOf(std::vector<double> values);

/// §5.1 ratio error max(est, exact) / min(est, exact) - 1, capped at 10
/// (also when either side is not positive).
double RatioError(double estimate, double exact);

/// A seeded Zipf stream: each update inserts a Zipf(z) value shifted right
/// by `shift`, except that with probability `delete_ratio` it deletes a
/// uniformly chosen earlier insert that is still live, so no frequency
/// ever goes negative.
std::vector<StreamUpdate> GenerateStream(uint64_t domain, double z,
                                         uint64_t shift, uint64_t count,
                                         double delete_ratio, uint64_t seed);

/// Cycles over a pre-generated pool in fixed-size batches. The pool size
/// must be a multiple of the batch size.
class BatchCycle {
 public:
  BatchCycle(const std::vector<StreamUpdate>* pool, size_t batch,
             size_t offset = 0)
      : pool_(pool), batch_(batch), begin_(offset), pos_(offset) {}
  std::span<const StreamUpdate> Next();

 private:
  const std::vector<StreamUpdate>* pool_;
  size_t batch_;
  size_t begin_;
  size_t pos_;
};

void ApplyTo(skimjoin::stream::FrequencyVector* reference,
             std::span<const StreamUpdate> batch);

/// Sum of the engine's `query.<id>.memory_bytes` gauges, in KiB.
double SynopsisKiB(const skimjoin::query::Engine& engine);

double PeakRssMiB();

/// Runs `setup` once, appends its seconds to *seconds and returns what it
/// built. Destroying the result is not timed.
template <typename Fn>
auto TimedSetup(Fn& setup, std::vector<double>* seconds) {
  const int64_t t0 = NowNs();
  auto made = setup();
  seconds->push_back(static_cast<double>(NowNs() - t0) * 1e-9);
  return made;
}

/// Keeps a computed value observable so the timed loop producing it is not
/// optimized away.
void KeepAlive(uint64_t value);

/// Moves the calling thread round-robin over the CPUs it may run on, at
/// most once per 100 ms, and restores its CPU mask when destroyed. A
/// single-writer loop calls Tick() every round so a run spends about equal
/// time on each CPU: on a shared VM one CPU at a time can run ~30% slower
/// for minutes (another tenant on its core), and a thread the scheduler
/// leaves there for a whole run made that run an outlier. Threads started
/// while it lives would inherit the pin, so it lives only around a loop.
/// concurrent_point does not use it: its writer runs beside two busy ingest
/// workers, and pinning the writer would constrain where the kernel puts
/// them.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void Tick();

 private:
  cpu_set_t original_;
  bool restore_ = false;
  std::vector<int> cpus_;
  size_t next_ = 0;
  int64_t moved_ns_ = 0;
};

/// Each workload fills `report`; trace mode also records spans in `tracer`.
void RunJoinIngest(const Options& options, Report* report, Tracer* tracer);
void RunJoinAnswer(const Options& options, Report* report, Tracer* tracer);
void RunConcurrentPoint(const Options& options, Report* report,
                        Tracer* tracer);
void RunFleetRefresh(const Options& options, Report* report, Tracer* tracer);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
