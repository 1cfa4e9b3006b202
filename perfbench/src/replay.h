// Layer replays for the traced run: an in-process fleet harness and the
// standalone-synopsis helpers the workloads replay their inputs through.

#ifndef PERFBENCH_REPLAY_H_
#define PERFBENCH_REPLAY_H_

#include <memory>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench.h"
#include "core/join_estimators.h"
#include "core/skimmed_sketch.h"
#include "dist/coordinator.h"
#include "dist/worker.h"
#include "query/query.h"

namespace perfbench {

/// A coordinator plus `workers` in-process dist::Worker shards, each
/// Serve()-ing on its own thread over a Unix socket under `dir`.
class Fleet {
 public:
  static skimjoin::StatusOr<std::unique_ptr<Fleet>> Start(
      const std::string& dir, int workers);
  ~Fleet();
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  skimjoin::dist::Coordinator& coordinator() { return *coordinator_; }

  /// Stops every worker and joins its thread; the first Serve() error, if
  /// any. Worker engines may be read afterwards.
  Status Stop();
  skimjoin::query::Engine& worker_engine(size_t k) {
    return workers_[k]->engine();
  }

 private:
  Fleet() = default;

  std::vector<std::string> sockets_;
  std::vector<std::unique_ptr<skimjoin::dist::Worker>> workers_;
  std::vector<Status> serve_status_;
  std::vector<std::thread> threads_;
  std::unique_ptr<skimjoin::dist::Coordinator> coordinator_;
};

/// The level-0/dyadic shape query::Engine::AddFrequencyQuery builds for
/// `spec` over a stream of `domain` values.
skimjoin::core::SkimmedSketchConfig FrequencySketchConfig(
    uint64_t domain, const skimjoin::query::FrequencyQuerySpec& spec);

/// Converts engine updates into the sketch layer's element type, dropping
/// zero counts exactly as the engine's frequency-query projection does.
std::vector<skimjoin::stream::StreamElement> ToElements(
    std::span<const StreamUpdate> batch);

/// The two skimmed sketches of a serialized skimmed join pair.
struct SkimmedSides {
  skimjoin::core::SkimmedSketch f;
  skimjoin::core::SkimmedSketch g;
};

/// Parses a JoinEstimatorPair::SerializeTo (or Engine::SerializeQuerySynopsis)
/// record of a skimmed join pair.
skimjoin::StatusOr<SkimmedSides> ParseSkimmedPair(const std::string& text);

/// Running totals over the skims TimedSkimJoin has timed.
struct SkimCounts {
  uint64_t skims = 0;
  /// Values the skims examined: the domain per naive scan (derived from
  /// the sketch's config, not counted inside the library).
  uint64_t scanned = 0;
  /// Dense values the skims extracted.
  uint64_t dense = 0;
  /// The skims used the dyadic search, whose candidate count is not public.
  bool dyadic = false;
};

/// Times SkimmedSketch::Skim() on each side ("core.skim") and
/// EstimateJoinSizeFromSkims ("core.subjoin") on the current state of a
/// skimmed join pair, restored from its serialization, and adds both skims
/// to *counts.
skimjoin::StatusOr<double> TimedSkimJoin(
    const skimjoin::core::JoinEstimatorPair& pair, Tracer* tracer,
    SkimCounts* counts);

/// Nanoseconds per unit of work of a span family, divided by `scale`.
double PerWork(const Tracer& tracer, const std::string& name, double scale);
/// Nanoseconds per span, divided by `scale`.
double PerCall(const Tracer::Totals& totals, double scale);

std::string SerializeSketch(const skimjoin::core::SkimmedSketch& sketch);

/// The named histogram of a registry snapshot, or null.
const skimjoin::metrics::HistogramSnapshot* FindHistogram(
    const skimjoin::metrics::Snapshot& snapshot, const std::string& name);
/// Sum of the `dist.*` counters whose names end in `suffix`.
double DistCounterTotal(const skimjoin::metrics::Snapshot& snapshot,
                        const std::string& suffix);

}  // namespace perfbench

#endif  // PERFBENCH_REPLAY_H_
