#include "replay.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <optional>
#include <sstream>
#include <utility>

namespace perfbench {

using skimjoin::StatusOr;
using skimjoin::core::SkimmedSketch;
namespace dist = skimjoin::dist;
namespace query = skimjoin::query;

// --- Fleet -----------------------------------------------------------------

StatusOr<std::unique_ptr<Fleet>> Fleet::Start(const std::string& dir,
                                              int workers) {
  static int started = 0;
  auto fleet = std::unique_ptr<Fleet>(new Fleet());
  std::vector<dist::ShardAddress> addresses;
  for (int k = 0; k < workers; ++k) {
    const std::string name = "s" + std::to_string(k);
    const std::string socket = dir + "/fleet-" + std::to_string(::getpid()) +
                               "-" + std::to_string(started) + "-" + name +
                               ".sock";
    dist::WorkerOptions options;
    options.socket_path = socket;
    options.shard_name = name;
    StatusOr<std::unique_ptr<dist::Worker>> worker =
        dist::Worker::Create(options);
    if (!worker.ok()) return worker.status();
    fleet->sockets_.push_back(socket);
    fleet->workers_.push_back(*std::move(worker));
    addresses.push_back({name, socket});
  }
  ++started;
  fleet->serve_status_.assign(fleet->workers_.size(), skimjoin::OkStatus());
  for (size_t k = 0; k < fleet->workers_.size(); ++k) {
    fleet->threads_.emplace_back([f = fleet.get(), k] {
      f->serve_status_[k] = f->workers_[k]->Serve();
    });
  }
  fleet->coordinator_ = std::make_unique<dist::Coordinator>(
      std::move(addresses), dist::CoordinatorOptions{});
  return fleet;
}

Status Fleet::Stop() {
  for (auto& worker : workers_) worker->RequestStop();
  for (std::thread& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  for (const std::string& socket : sockets_) {
    std::error_code ignored;
    std::filesystem::remove(socket, ignored);
  }
  for (const Status& status : serve_status_) {
    if (!status.ok()) return status;
  }
  return skimjoin::OkStatus();
}

Fleet::~Fleet() {
  coordinator_.reset();
  (void)Stop();
}

// --- Standalone synopsis helpers -------------------------------------------

skimjoin::core::SkimmedSketchConfig FrequencySketchConfig(
    uint64_t domain, const query::FrequencyQuerySpec& spec) {
  skimjoin::core::SkimmedSketchConfig config;
  config.domain_size = domain;
  config.num_tables = spec.num_tables;
  config.use_dyadic_skim = spec.use_dyadic;
  if (spec.use_dyadic) {
    config.num_buckets =
        std::max<uint64_t>(1, spec.space_counters / (2 * spec.num_tables));
    uint64_t levels = 0;
    while ((uint64_t{1} << levels) < domain) ++levels;
    config.dyadic_num_buckets = std::max<uint64_t>(
        1, spec.space_counters / (2 * spec.num_tables * levels));
  } else {
    config.num_buckets =
        std::max<uint64_t>(1, spec.space_counters / spec.num_tables);
  }
  return config;
}

std::vector<skimjoin::stream::StreamElement> ToElements(
    std::span<const StreamUpdate> batch) {
  std::vector<skimjoin::stream::StreamElement> out;
  out.reserve(batch.size());
  for (const StreamUpdate& u : batch) {
    if (u.count != 0) out.push_back({u.value, u.count});
  }
  return out;
}

StatusOr<SkimmedSides> ParseSkimmedPair(const std::string& text) {
  std::istringstream in(text);
  std::string header;
  if (!std::getline(in, header)) {
    return skimjoin::InvalidArgumentError("empty join-pair record");
  }
  SKIMJOIN_ASSIGN_OR_RETURN(SkimmedSketch f,
                            SkimmedSketch::DeserializeFrom(in));
  SKIMJOIN_ASSIGN_OR_RETURN(SkimmedSketch g,
                            SkimmedSketch::DeserializeFrom(in));
  return SkimmedSides{std::move(f), std::move(g)};
}

namespace {

/// Values one skim examines. The naive scan (use_dyadic_skim off, as for
/// every join query here) visits each domain value once; the dyadic
/// search's candidate count is not public, so that path falls back to the
/// dense values found, a lower bound.
uint64_t ScannedValues(const SkimmedSketch& sketch,
                       const SkimmedSketch::SkimOutput& skim) {
  return sketch.config().use_dyadic_skim ? skim.dense.size()
                                         : sketch.config().domain_size;
}

}  // namespace

StatusOr<double> TimedSkimJoin(const skimjoin::core::JoinEstimatorPair& pair,
                               Tracer* tracer, SkimCounts* counts) {
  std::ostringstream text;
  SKIMJOIN_RETURN_IF_ERROR(pair.SerializeTo(text));
  SKIMJOIN_ASSIGN_OR_RETURN(SkimmedSides sides, ParseSkimmedPair(text.str()));
  std::optional<SkimmedSketch::SkimOutput> skim_f;
  std::optional<SkimmedSketch::SkimOutput> skim_g;
  {
    Scoped span(tracer, "core.skim");
    skim_f.emplace(sides.f.Skim());
  }
  {
    Scoped span(tracer, "core.skim");
    skim_g.emplace(sides.g.Skim());
  }
  counts->skims += 2;
  counts->dense += skim_f->dense.size() + skim_g->dense.size();
  counts->scanned +=
      ScannedValues(sides.f, *skim_f) + ScannedValues(sides.g, *skim_g);
  counts->dyadic = sides.f.config().use_dyadic_skim;
  Scoped span(tracer, "core.subjoin");
  return SkimmedSketch::EstimateJoinSizeFromSkims(*skim_f, *skim_g);
}

double PerWork(const Tracer& tracer, const std::string& name, double scale) {
  const Tracer::Totals totals = tracer.Sum(name);
  return totals.work > 0 ? totals.ns / totals.work / scale : 0.0;
}

double PerCall(const Tracer::Totals& totals, double scale) {
  if (totals.count == 0) return 0.0;
  return totals.ns / static_cast<double>(totals.count) / scale;
}

std::string SerializeSketch(const SkimmedSketch& sketch) {
  std::ostringstream out;
  (void)sketch.SerializeTo(out);
  return out.str();
}

const skimjoin::metrics::HistogramSnapshot* FindHistogram(
    const skimjoin::metrics::Snapshot& snapshot, const std::string& name) {
  for (const auto& [key, histogram] : snapshot.histograms) {
    if (key == name) return &histogram;
  }
  return nullptr;
}

double DistCounterTotal(const skimjoin::metrics::Snapshot& snapshot,
                        const std::string& suffix) {
  double total = 0;
  for (const auto& [key, value] : snapshot.counters) {
    if (key.rfind("dist.", 0) == 0 && key.size() > suffix.size() &&
        key.compare(key.size() - suffix.size(), suffix.size(), suffix) == 0) {
      total += static_cast<double>(value);
    }
  }
  return total;
}

}  // namespace perfbench
