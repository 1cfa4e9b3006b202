#include "dist/coordinator.h"

#include <unistd.h>

#include <algorithm>
#include <thread>
#include <utility>
#include <variant>

#include "query/spec_codec.h"
#include "util/event_log.h"
#include "util/logging.h"

namespace skimjoin {
namespace dist {

namespace {

/// Records wall time from construction until scope exit into a latency
/// histogram (nanoseconds). Covers the WHOLE retrying RPC, backoffs
/// included — the operator-facing number is "how long did this call keep
/// the coordinator busy", not per-attempt socket time.
class LatencyScope {
 public:
  explicit LatencyScope(metrics::ShardedHistogram* histogram)
      : histogram_(histogram), start_(std::chrono::steady_clock::now()) {}
  ~LatencyScope() {
    if (histogram_ == nullptr) return;
    const auto elapsed = std::chrono::steady_clock::now() - start_;
    histogram_->Record(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count()));
  }

 private:
  metrics::ShardedHistogram* histogram_;
  std::chrono::steady_clock::time_point start_;
};

/// Whether `status` is a worker's answer ("remote: ...", see protocol.cc)
/// rather than a transport failure.
bool IsRemoteError(const Status& status) {
  return status.message().rfind("remote: ", 0) == 0;
}

/// A merged report is partial unless every shard's delta was fresh and
/// caught up with the epochs it acknowledged.
EstimateReport WithShards(EstimateReport report,
                          std::vector<ShardContribution> shards) {
  report.partial = false;
  for (const ShardContribution& shard : shards) {
    if (!shard.fresh || shard.epochs_behind > 0) report.partial = true;
  }
  report.shards = std::move(shards);
  return report;
}

}  // namespace

const char* Coordinator::RpcTypeName(MessageType type) {
  switch (type) {
    case MessageType::kHello:
      return "hello";
    case MessageType::kHelloReply:
      return "hello_reply";
    case MessageType::kRegisterStream:
      return "register_stream";
    case MessageType::kRegistered:
      return "registered";
    case MessageType::kUpdateBatch:
      return "update_batch";
    case MessageType::kUpdateAck:
      return "update_ack";
    case MessageType::kPullDelta:
      return "pull_delta";
    case MessageType::kDelta:
      return "delta";
    case MessageType::kCheckpoint:
      return "checkpoint";
    case MessageType::kCheckpointAck:
      return "checkpoint_ack";
    case MessageType::kPing:
      return "ping";
    case MessageType::kError:
      return "error";
    case MessageType::kRegisterRelation:
      return "register_relation";
    case MessageType::kUpdateRelation:
      return "update_relation";
    case MessageType::kMetricsRequest:
      return "metrics_request";
    case MessageType::kMetricsSnapshot:
      return "metrics_snapshot";
    case MessageType::kEventsRequest:
      return "events_request";
    case MessageType::kEventBatch:
      return "event_batch";
    case MessageType::kTraceControl:
      return "trace_control";
    case MessageType::kTraceRequest:
      return "trace_request";
    case MessageType::kTraceEvents:
      return "trace_events";
    case MessageType::kHealthRequest:
      return "health_request";
    case MessageType::kHealthReport:
      return "health_report";
    case MessageType::kRegisterQuery:
      return "register_query";
  }
  return "unknown";
}

metrics::ShardedHistogram* Coordinator::RpcLatencyHistogram(MessageType type) {
  const uint32_t key = static_cast<uint32_t>(type);
  const auto it = rpc_latency_.find(key);
  if (it != rpc_latency_.end()) return it->second;
  const std::string name =
      std::string("dist.rpc.") + RpcTypeName(type) + ".latency_ns";
  metrics::ShardedHistogram* histogram = metrics_.GetHistogram(name);
  metrics_.SetHelp(name,
                   std::string("End-to-end latency of ") + RpcTypeName(type) +
                       " RPCs in nanoseconds, retries and backoff included.");
  rpc_latency_[key] = histogram;
  return histogram;
}

const char* Coordinator::HealthName(Health health) {
  switch (health) {
    case Health::kHealthy:
      return "healthy";
    case Health::kRecovering:
      return "recovering";
    case Health::kDown:
      return "down";
  }
  return "unknown";
}

Coordinator::Coordinator(std::vector<ShardAddress> shards,
                         CoordinatorOptions options)
    : options_(options), jitter_rng_(options.jitter_seed) {
  SKIMJOIN_CHECK(!shards.empty()) << "coordinator needs at least one shard";
  if (options_.rpc_attempts < 1) options_.rpc_attempts = 1;
  shards_.reserve(shards.size());
  for (ShardAddress& address : shards) {
    auto shard = std::make_unique<ShardState>();
    const std::string prefix = "dist." + address.name + ".";
    shard->rpc_calls = metrics_.GetCounter(prefix + "rpc_calls");
    metrics_.SetHelp(prefix + "rpc_calls",
                     "RPC attempts sent to this shard (retries included).");
    shard->rpc_retries = metrics_.GetCounter(prefix + "rpc_retries");
    metrics_.SetHelp(prefix + "rpc_retries",
                     "RPC attempts beyond the first, after backoff.");
    shard->rpc_failures = metrics_.GetCounter(prefix + "rpc_failures");
    metrics_.SetHelp(prefix + "rpc_failures",
                     "RPCs that exhausted every attempt against this shard.");
    shard->delta_bytes = metrics_.GetCounter(prefix + "delta_bytes");
    metrics_.SetHelp(prefix + "delta_bytes",
                     "Synopsis delta payload bytes pulled from this shard.");
    shard->health_gauge = metrics_.GetGauge(prefix + "health");
    metrics_.SetHelp(prefix + "health",
                     "Shard health: 0 healthy, 1 recovering, 2 down.");
    shard->epoch_gauge = metrics_.GetGauge(prefix + "acked_epoch");
    metrics_.SetHelp(prefix + "acked_epoch",
                     "Highest update-batch epoch this shard has acknowledged.");
    shard->address = std::move(address);
    shards_.push_back(std::move(shard));
  }
}

void Coordinator::PublishHealth(ShardState& shard) {
  shard.health_gauge->Set(static_cast<double>(static_cast<int>(shard.health)));
  shard.epoch_gauge->Set(static_cast<double>(shard.last_acked_epoch));
}

void Coordinator::MarkFailure(ShardState& shard, const Status& status) {
  shard.channel.Close();
  shard.rpc_failures->Increment();
  ++shard.consecutive_failures;
  if (shard.health != Health::kDown &&
      shard.consecutive_failures >= options_.down_after_failures) {
    shard.health = Health::kDown;
    EventLog::Global().Emit(LogLevel::kWarn, "worker_down",
                            {{"shard", shard.address.name},
                             {"error", status.ToString()}});
  }
  PublishHealth(shard);
}

void Coordinator::MarkSuccess(ShardState& shard) {
  shard.consecutive_failures = 0;
  if (shard.health == Health::kDown) shard.health = Health::kRecovering;
  PublishHealth(shard);
}

Status Coordinator::EnsureConnected(ShardState& shard) {
  if (shard.channel.valid()) return OkStatus();
  const Deadline deadline = DeadlineAfter(options_.rpc_timeout);
  SKIMJOIN_ASSIGN_OR_RETURN(shard.channel,
                            ConnectUnix(shard.address.socket_path, deadline));
  const Status handshake = Handshake(shard, deadline);
  if (handshake.ok()) return OkStatus();
  // Only a handshaken channel is usable: close this one so the next call
  // starts over, and leave the shard unadopted. A worker that refuses a
  // replayed registration cannot serve the fleet's queries, so its refusal
  // is the shard's failure, not a remote answer for Rpc to pass through.
  shard.channel.Close();
  if (!IsRemoteError(handshake)) return handshake;
  return Status(handshake.code(),
                "registration replay refused: " + handshake.message());
}

Status Coordinator::Handshake(ShardState& shard, Deadline deadline) {
  metrics::TraceRecorder& recorder = metrics::TraceRecorder::Global();
  const uint64_t hello_sent = recorder.NowMicros();
  SKIMJOIN_ASSIGN_OR_RETURN(
      Frame hello,
      Call(shard.channel, MessageType::kHello, "", deadline));
  const uint64_t hello_received = recorder.NowMicros();
  if (hello.type != static_cast<uint32_t>(MessageType::kHelloReply)) {
    return InvalidArgumentError("unexpected hello reply type " +
                                std::to_string(hello.type));
  }
  SKIMJOIN_ASSIGN_OR_RETURN(HelloReply reply, DecodeHelloReply(hello.payload));
  if (reply.trace_clock_micros != 0) {
    // The worker stamped its recorder clock into the reply; assuming a
    // symmetric link, that stamp was taken at the round trip's midpoint on
    // our clock. worker − coordinator, in micros.
    const uint64_t midpoint =
        hello_sent + (hello_received - hello_sent) / 2;
    shard.clock_offset_micros =
        static_cast<int64_t>(reply.trace_clock_micros) -
        static_cast<int64_t>(midpoint);
  }
  if (reply.incarnation != shard.incarnation) {
    // First contact, or the worker restarted from its checkpoint. Replay
    // every recorded registration (idempotent on the worker) so the shard
    // can serve queries again; its data lag shows up as epochs_behind
    // until the lost updates are re-driven.
    for (const RegistrationRecord& record : registrations_) {
      SKIMJOIN_ASSIGN_OR_RETURN(
          Frame ack, Call(shard.channel, record.type, record.payload,
                          DeadlineAfter(options_.rpc_timeout)));
      if (ack.type != static_cast<uint32_t>(MessageType::kRegistered)) {
        return InternalError("registration replay got reply type " +
                             std::to_string(ack.type));
      }
    }
    if (shard.incarnation != 0) {
      EventLog::Global().Emit(
          LogLevel::kInfo, "worker_readopted",
          {{"shard", shard.address.name},
           {"incarnation", std::to_string(reply.incarnation)},
           {"epoch", std::to_string(reply.epoch)}});
      if (shard.health == Health::kDown) shard.health = Health::kRecovering;
    }
    shard.incarnation = reply.incarnation;
    // A restarted worker restarts its event-log sequence numbers; scraping
    // must start over or the fresh events would all look already-seen.
    shard.events_scraped_through = 0;
  }
  PublishHealth(shard);
  return OkStatus();
}

StatusOr<Frame> Coordinator::CallOnce(ShardState& shard, MessageType type,
                                      std::string_view payload) {
  SKIMJOIN_RETURN_IF_ERROR(EnsureConnected(shard));
  shard.rpc_calls->Increment();
  return Call(shard.channel, type, payload,
              DeadlineAfter(options_.rpc_timeout));
}

StatusOr<Frame> Coordinator::Rpc(ShardState& shard, MessageType type,
                                 std::string_view payload) {
  const LatencyScope latency(RpcLatencyHistogram(type));
  Status last = OkStatus();
  for (int attempt = 1; attempt <= options_.rpc_attempts; ++attempt) {
    StatusOr<Frame> reply = CallOnce(shard, type, payload);
    if (reply.ok()) {
      MarkSuccess(shard);
      return reply;
    }
    last = reply.status();
    // A remote application error means the RPC itself worked — the worker
    // answered with a Status. Don't burn retries or damn the shard's
    // health for it.
    if (IsRemoteError(last)) {
      MarkSuccess(shard);
      return last;
    }
    MarkFailure(shard, last);
    if (attempt == options_.rpc_attempts) break;
    const int64_t base_ms = options_.backoff_base.count();
    const int64_t capped = std::min<int64_t>(
        options_.backoff_cap.count(),
        base_ms << std::min(attempt - 1, 20));
    const auto backoff = std::chrono::milliseconds(static_cast<int64_t>(
        static_cast<double>(capped) * (0.5 + 0.5 * jitter_rng_.NextDouble())));
    shard.rpc_retries->Increment();
    EventLog::Global().Emit(LogLevel::kInfo, "rpc_retry",
                            {{"shard", shard.address.name},
                             {"attempt", std::to_string(attempt)},
                             {"backoff_ms", std::to_string(backoff.count())},
                             {"error", last.ToString()}});
    std::this_thread::sleep_for(backoff);
  }
  return last;
}

Status Coordinator::Broadcast(MessageType type, const std::string& payload) {
  registrations_.push_back({type, payload});
  Status first_failure = OkStatus();
  for (const auto& shard : shards_) {
    StatusOr<Frame> reply = Rpc(*shard, type, payload);
    if (!reply.ok() && first_failure.ok()) first_failure = reply.status();
  }
  // A shard that missed the broadcast gets it replayed at its next
  // handshake (the record above is what makes that possible), but the
  // caller still learns registration did not reach the whole fleet.
  return first_failure;
}

Status Coordinator::RegisterStream(const query::StreamSpec& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  SKIMJOIN_RETURN_IF_ERROR(ValidateWireName(spec.name, "stream name"));
  SKIMJOIN_RETURN_IF_ERROR(engine_.RegisterStream(spec).status());
  StreamReg reg;
  reg.name = spec.name;
  reg.domain_size = spec.domain_size;
  return Broadcast(MessageType::kRegisterStream, EncodeStreamReg(reg));
}

StatusOr<query::QueryId> Coordinator::AddQuery(const query::QuerySpec& spec,
                                               uint64_t seed) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (!std::holds_alternative<query::JoinQuerySpec>(spec) &&
      !std::holds_alternative<query::FrequencyQuerySpec>(spec) &&
      !std::holds_alternative<query::ChainJoinQuerySpec>(spec)) {
    return UnimplementedError(std::string("the fleet cannot answer ") +
                              query::QueryKindName(spec) + " queries");
  }
  // The engine runs the workers' own checks; what it refuses never reaches
  // the wire or the replay log.
  SKIMJOIN_ASSIGN_OR_RETURN(const query::QueryId id,
                            engine_.AddQuery(spec, seed));
  // Shard synopses reach the coordinator serialized, so a join method whose
  // synopsis does not serialize (sampling, partitioned AGMS) cannot be
  // distributed. Its engine registration stays behind, never answered.
  std::string record;
  SKIMJOIN_RETURN_IF_ERROR(engine_.SerializeQuerySynopsis(id, &record));
  SKIMJOIN_RETURN_IF_ERROR(
      Broadcast(MessageType::kRegisterQuery,
                EncodeQueryReg({"q" + std::to_string(id), seed, spec})));
  queries_.insert(id);
  return id;
}

Status Coordinator::Update(const std::string& stream,
                           const query::StreamUpdate& update) {
  return UpdateBatch(stream,
                     std::span<const query::StreamUpdate>(&update, 1));
}

Status Coordinator::UpdateBatch(const std::string& stream,
                                std::span<const query::StreamUpdate> updates) {
  // Root span of the fan-out: Call() stamps this context into every frame
  // header, so each worker's ingest span joins this trace (inert — and
  // zero wire-format impact — while tracing is off).
  const metrics::TraceSpan span("coordinator.update_batch", "dist");
  std::lock_guard<std::mutex> lock(mutex_);
  SKIMJOIN_RETURN_IF_ERROR(engine_.StreamElementCount(stream).status());
  // Route each element to value % num_shards, preserving arrival order
  // within a shard. Counter merges commute, so any value-deterministic
  // routing keeps the merged synopsis bit-identical to single-engine
  // ingestion of the same batch.
  std::vector<std::vector<query::StreamUpdate>> routed(shards_.size());
  for (const query::StreamUpdate& update : updates) {
    routed[ShardIndexFor(update.value)].push_back(update);
  }
  Status first_failure = OkStatus();
  for (size_t i = 0; i < shards_.size(); ++i) {
    if (routed[i].empty()) continue;
    UpdateBatchMsg msg;
    msg.stream = stream;
    msg.updates = std::move(routed[i]);
    StatusOr<Frame> reply =
        Rpc(*shards_[i], MessageType::kUpdateBatch, EncodeUpdateBatch(msg));
    if (!reply.ok()) {
      if (first_failure.ok()) first_failure = reply.status();
      continue;
    }
    StatusOr<HelloReply> ack = DecodeHelloReply(reply->payload);
    if (ack.ok()) {
      shards_[i]->last_acked_epoch = ack->epoch;
      PublishHealth(*shards_[i]);
    }
  }
  return first_failure;
}

StatusOr<std::vector<ShardContribution>> Coordinator::Refresh(
    query::QueryId query) {
  if (queries_.count(query) == 0) {
    return NotFoundError("unknown query id " + std::to_string(query));
  }
  const std::string wire_name = "q" + std::to_string(query);
  ++pull_round_;
  std::vector<ShardContribution> contributions;
  contributions.reserve(shards_.size());
  std::vector<std::string> records;
  for (const auto& shard : shards_) {
    StatusOr<Frame> reply = Rpc(*shard, MessageType::kPullDelta, wire_name);
    if (reply.ok() &&
        reply->type == static_cast<uint32_t>(MessageType::kDelta)) {
      StatusOr<DeltaMsg> delta = DecodeDelta(reply->payload);
      if (delta.ok() && delta->query_name == wire_name) {
        CachedDelta& cached = shard->deltas[query];
        cached.synopsis = std::move(delta->synopsis);
        cached.incarnation = delta->incarnation;
        cached.epoch = delta->epoch;
        cached.round = pull_round_;
        cached.valid = true;
        shard->delta_bytes->Increment(cached.synopsis.size());
        if (shard->health != Health::kHealthy) {
          shard->health = Health::kHealthy;
          shard->consecutive_failures = 0;
          EventLog::Global().Emit(
              LogLevel::kInfo, "worker_restored",
              {{"shard", shard->address.name},
               {"incarnation", std::to_string(cached.incarnation)},
               {"epoch", std::to_string(cached.epoch)}});
        }
        PublishHealth(*shard);
      }
    }
    ShardContribution contribution;
    contribution.shard = shard->address.name;
    contribution.health = HealthName(shard->health);
    const auto it = shard->deltas.find(query);
    if (it != shard->deltas.end() && it->second.valid) {
      records.push_back(it->second.synopsis);
      contribution.fresh = it->second.round == pull_round_;
      contribution.epoch = it->second.epoch;
      contribution.epochs_behind =
          shard->last_acked_epoch > it->second.epoch
              ? shard->last_acked_epoch - it->second.epoch
              : 0;
    } else {
      // Never pulled anything from this shard: it contributes nothing at
      // all to the merge.
      contribution.fresh = false;
      contribution.epoch = 0;
      contribution.epochs_behind = shard->last_acked_epoch;
    }
    contributions.push_back(std::move(contribution));
  }
  if (records.empty()) {
    return FailedPreconditionError("no shard has delivered a delta for query " +
                                   std::to_string(query) + " yet");
  }
  SKIMJOIN_RETURN_IF_ERROR(engine_.LoadQuerySynopsis(query, records));
  return contributions;
}

StatusOr<double> Coordinator::AnswerJoin(query::QueryId query) {
  const metrics::TraceSpan span("coordinator.answer_join", "dist");
  std::lock_guard<std::mutex> lock(mutex_);
  SKIMJOIN_RETURN_IF_ERROR(Refresh(query).status());
  return engine_.AnswerJoin(query);
}

StatusOr<EstimateReport> Coordinator::AnswerJoinWithReport(
    query::QueryId query) {
  const metrics::TraceSpan span("coordinator.answer_join", "dist");
  std::lock_guard<std::mutex> lock(mutex_);
  SKIMJOIN_ASSIGN_OR_RETURN(std::vector<ShardContribution> shards,
                            Refresh(query));
  SKIMJOIN_ASSIGN_OR_RETURN(EstimateReport report,
                            engine_.AnswerJoinWithReport(query));
  return WithShards(std::move(report), std::move(shards));
}

StatusOr<int64_t> Coordinator::AnswerPointFrequency(query::QueryId query,
                                                    uint64_t value) {
  const metrics::TraceSpan span("coordinator.answer_point", "dist");
  std::lock_guard<std::mutex> lock(mutex_);
  SKIMJOIN_RETURN_IF_ERROR(Refresh(query).status());
  return engine_.AnswerPointFrequency(query, value);
}

Status Coordinator::RegisterRelation(const query::RelationSpec& spec) {
  std::lock_guard<std::mutex> lock(mutex_);
  SKIMJOIN_RETURN_IF_ERROR(ValidateWireName(spec.name, "relation name"));
  SKIMJOIN_RETURN_IF_ERROR(engine_.RegisterRelation(spec).status());
  relation_arities_[spec.name] = spec.arity;
  RelationReg reg;
  reg.name = spec.name;
  reg.arity = spec.arity;
  reg.domain_size = spec.domain_size;
  return Broadcast(MessageType::kRegisterRelation, EncodeRelationReg(reg));
}

Status Coordinator::UpdateRelation(const std::string& relation,
                                   const std::vector<uint64_t>& attributes,
                                   int64_t weight) {
  const metrics::TraceSpan span("coordinator.update_relation", "dist");
  std::lock_guard<std::mutex> lock(mutex_);
  const auto it = relation_arities_.find(relation);
  if (it == relation_arities_.end()) {
    return NotFoundError("unknown relation '" + relation + "'");
  }
  if (attributes.size() != it->second) {
    return InvalidArgumentError(
        "tuple arity mismatch: relation '" + relation + "' has arity " +
        std::to_string(it->second) + ", got " +
        std::to_string(attributes.size()) + " attributes");
  }
  // Route by the first attribute. Any value-deterministic routing keeps
  // the merged chain synopsis exact (the counters are linear), and keying
  // on attributes[0] lets tests aim a tuple at a chosen shard the same way
  // stream updates do.
  ShardState& shard = *shards_[ShardIndexFor(attributes[0])];
  RelationUpdateMsg msg;
  msg.relation = relation;
  msg.arity = it->second;
  msg.tuples.push_back({attributes, weight});
  SKIMJOIN_ASSIGN_OR_RETURN(
      Frame reply,
      Rpc(shard, MessageType::kUpdateRelation, EncodeRelationUpdate(msg)));
  StatusOr<HelloReply> ack = DecodeHelloReply(reply.payload);
  if (ack.ok()) {
    shard.last_acked_epoch = ack->epoch;
    PublishHealth(shard);
  }
  return OkStatus();
}

StatusOr<double> Coordinator::AnswerChainJoin(query::QueryId query) {
  const metrics::TraceSpan span("coordinator.answer_chain", "dist");
  std::lock_guard<std::mutex> lock(mutex_);
  SKIMJOIN_RETURN_IF_ERROR(Refresh(query).status());
  return engine_.AnswerChainJoin(query);
}

StatusOr<EstimateReport> Coordinator::AnswerChainJoinWithReport(
    query::QueryId query) {
  const metrics::TraceSpan span("coordinator.answer_chain", "dist");
  std::lock_guard<std::mutex> lock(mutex_);
  SKIMJOIN_ASSIGN_OR_RETURN(std::vector<ShardContribution> shards,
                            Refresh(query));
  SKIMJOIN_ASSIGN_OR_RETURN(EstimateReport report,
                            engine_.AnswerChainJoinWithReport(query));
  return WithShards(std::move(report), std::move(shards));
}

StatusOr<metrics::Snapshot> Coordinator::FleetMetricsSnapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  // The coordinator's own series stay unlabeled — exactly what a
  // single-process snapshot of this registry would show — and every
  // reachable shard's series are appended as `base{shard="<index>"}`.
  metrics::Snapshot merged = metrics_.TakeSnapshot();
  for (size_t i = 0; i < shards_.size(); ++i) {
    StatusOr<Frame> reply = Rpc(*shards_[i], MessageType::kMetricsRequest, "");
    if (!reply.ok() ||
        reply->type != static_cast<uint32_t>(MessageType::kMetricsSnapshot)) {
      continue;  // a down shard is simply absent from this snapshot
    }
    StatusOr<metrics::Snapshot> remote = DecodeMetricsSnapshot(reply->payload);
    if (!remote.ok()) continue;
    const std::vector<std::pair<std::string, std::string>> labels = {
        {"shard", std::to_string(i)}};
    for (auto& [name, value] : remote->counters) {
      merged.counters.emplace_back(metrics::LabeledName(name, labels), value);
    }
    for (auto& [name, value] : remote->gauges) {
      merged.gauges.emplace_back(metrics::LabeledName(name, labels), value);
    }
    for (auto& [name, value] : remote->histograms) {
      merged.histograms.emplace_back(metrics::LabeledName(name, labels),
                                     std::move(value));
    }
  }
  // Re-establish the sorted-by-name invariant exporters group on (labeled
  // series of one base sort adjacent, sharing one # TYPE family).
  const auto by_name = [](const auto& a, const auto& b) {
    return a.first < b.first;
  };
  std::sort(merged.counters.begin(), merged.counters.end(), by_name);
  std::sort(merged.gauges.begin(), merged.gauges.end(), by_name);
  std::sort(merged.histograms.begin(), merged.histograms.end(), by_name);
  return merged;
}

Status Coordinator::ScrapeFleetEvents() {
  std::lock_guard<std::mutex> lock(mutex_);
  Status first_failure = OkStatus();
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardState& shard = *shards_[i];
    EventsRequest request;
    request.max_events = 0;  // worker default: its whole retained tail
    request.after_sequence = shard.events_scraped_through;
    StatusOr<Frame> reply =
        Rpc(shard, MessageType::kEventsRequest, EncodeEventsRequest(request));
    if (!reply.ok()) {
      if (first_failure.ok()) first_failure = reply.status();
      continue;
    }
    if (reply->type != static_cast<uint32_t>(MessageType::kEventBatch)) {
      continue;
    }
    StatusOr<EventBatchMsg> batch = DecodeEventBatch(reply->payload);
    if (!batch.ok()) {
      if (first_failure.ok()) first_failure = batch.status();
      continue;
    }
    for (LogEvent& event : batch->events) {
      if (event.sequence <= shard.events_scraped_through) continue;
      shard.events_scraped_through = event.sequence;
      // Re-emit into this process's log under a fresh sequence/timestamp,
      // keeping the worker's identity and ordering in the payload.
      std::vector<std::pair<std::string, std::string>> fields =
          std::move(event.fields);
      fields.emplace_back("origin_shard", std::to_string(i));
      fields.emplace_back("origin_seq", std::to_string(event.sequence));
      EventLog::Global().Emit(event.level, std::move(event.event),
                              std::move(fields));
    }
  }
  return first_failure;
}

Status Coordinator::SetFleetTracing(bool enable) {
  std::lock_guard<std::mutex> lock(mutex_);
  if (enable) {
    metrics::TraceRecorder::Global().Enable();
  } else {
    metrics::TraceRecorder::Global().Disable();
  }
  TraceControlMsg msg;
  msg.enable = enable;
  const std::string payload = EncodeTraceControl(msg);
  Status first_failure = OkStatus();
  for (const auto& shard : shards_) {
    StatusOr<Frame> reply = Rpc(*shard, MessageType::kTraceControl, payload);
    if (!reply.ok() && first_failure.ok()) first_failure = reply.status();
  }
  return first_failure;
}

StatusOr<std::string> Coordinator::DumpFleetTrace() {
  std::lock_guard<std::mutex> lock(mutex_);
  metrics::TraceRecorder& recorder = metrics::TraceRecorder::Global();
  std::vector<metrics::ProcessTrace> processes;
  processes.reserve(shards_.size() + 1);
  metrics::ProcessTrace own;
  own.pid = static_cast<uint64_t>(getpid());
  own.name = "coordinator";
  own.clock_offset_micros = 0;  // the coordinator clock IS the timeline
  own.events = recorder.DrainEvents(&own.dropped);
  processes.push_back(std::move(own));
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardState& shard = *shards_[i];
    const uint64_t sent = recorder.NowMicros();
    StatusOr<Frame> reply = Rpc(shard, MessageType::kTraceRequest, "");
    const uint64_t received = recorder.NowMicros();
    if (!reply.ok() ||
        reply->type != static_cast<uint32_t>(MessageType::kTraceEvents)) {
      continue;  // an unreachable shard is absent from the merged trace
    }
    StatusOr<TraceEventsMsg> msg = DecodeTraceEvents(reply->payload);
    if (!msg.ok()) continue;
    if (msg->now_micros != 0) {
      // Refine the hello-handshake offset estimate with this (much more
      // recent) round trip: the worker stamped its clock roughly at our
      // midpoint.
      shard.clock_offset_micros =
          static_cast<int64_t>(msg->now_micros) -
          static_cast<int64_t>(sent + (received - sent) / 2);
    }
    metrics::ProcessTrace process;
    // Workers run on other machines in general — their real pids can
    // collide with ours or each other's. Synthesize distinct track ids.
    process.pid = static_cast<uint64_t>(getpid()) + 1 + i;
    process.name = shard.address.name;
    // Stored offset is worker − coordinator; shifting the worker's
    // timestamps onto the coordinator timeline subtracts it.
    process.clock_offset_micros = -shard.clock_offset_micros;
    process.events = std::move(msg->events);
    process.dropped = msg->dropped;
    processes.push_back(std::move(process));
  }
  return metrics::MergeAsChromeTrace(processes);
}

StatusOr<query::HealthReport> Coordinator::FleetHealthReport() {
  const metrics::TraceSpan span("coordinator.health", "dist");
  std::lock_guard<std::mutex> lock(mutex_);
  query::HealthReport report;
  for (size_t i = 0; i < shards_.size(); ++i) {
    ShardState& shard = *shards_[i];
    const std::string shard_label = std::to_string(i);
    StatusOr<Frame> reply = Rpc(shard, MessageType::kHealthRequest, "");
    if (!reply.ok() ||
        reply->type != static_cast<uint32_t>(MessageType::kHealthReport)) {
      // A dead shard must not vanish from the doctor's view: it becomes a
      // finding itself, labeled like everything else from this shard.
      report.findings.push_back(
          {query::HealthFinding::Severity::kCritical,
           "shard " + shard.address.name, "unreachable",
           reply.ok() ? "worker sent an unexpected reply type"
                      : reply.status().ToString(),
           shard_label});
      continue;
    }
    StatusOr<HealthReportMsg> msg = DecodeHealthReport(reply->payload);
    if (!msg.ok()) {
      report.findings.push_back({query::HealthFinding::Severity::kCritical,
                                 "shard " + shard.address.name, "unreachable",
                                 msg.status().ToString(), shard_label});
      continue;
    }
    for (query::HealthFinding& finding : msg->findings) {
      finding.shard = shard_label;
      report.findings.push_back(std::move(finding));
    }
  }
  return report;
}

Status Coordinator::CheckpointShards() {
  const metrics::TraceSpan span("coordinator.checkpoint", "dist");
  std::lock_guard<std::mutex> lock(mutex_);
  Status first_failure = OkStatus();
  for (const auto& shard : shards_) {
    StatusOr<Frame> reply = Rpc(*shard, MessageType::kCheckpoint, "");
    if (!reply.ok()) {
      if (first_failure.ok()) first_failure = reply.status();
      continue;
    }
    StatusOr<HelloReply> ack = DecodeHelloReply(reply->payload);
    if (ack.ok()) shard->last_acked_epoch = ack->epoch;
  }
  return first_failure;
}

Status Coordinator::ProbeHealth() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& shard : shards_) {
    // Single attempt on purpose: a probe measures, it does not insist.
    StatusOr<Frame> reply = CallOnce(*shard, MessageType::kPing, "");
    if (reply.ok()) {
      MarkSuccess(*shard);
    } else {
      MarkFailure(*shard, reply.status());
    }
  }
  return OkStatus();
}

std::vector<query::DistShardStatus> Coordinator::ShardStatuses() {
  std::lock_guard<std::mutex> lock(mutex_);
  std::vector<query::DistShardStatus> statuses;
  statuses.reserve(shards_.size());
  for (const auto& shard : shards_) {
    query::DistShardStatus status;
    status.shard = shard->address.name;
    status.health = HealthName(shard->health);
    status.incarnation = shard->incarnation;
    status.last_acked_epoch = shard->last_acked_epoch;
    status.rpc_retries = shard->rpc_retries->Value();
    status.rpc_failures = shard->rpc_failures->Value();
    statuses.push_back(std::move(status));
  }
  return statuses;
}

}  // namespace dist
}  // namespace skimjoin
