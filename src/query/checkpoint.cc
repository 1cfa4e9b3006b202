// Engine::SaveCheckpoint / Engine::RestoreCheckpoint / Engine::Clear — the
// crash-safe persistence layer described in query/checkpoint.h.
//
// Checkpoint layout (sections of a util::DurableFileWriter file):
//   "manifest"    text manifest, format below
//   "meta:<key>"  caller metadata values, one section per key
//   "query:<id>"  serialized synopsis of each SUPPORTED query, id ascending
//
// Manifest text format (whitespace-separated; names percent-encoded so they
// survive the tokenizer; doubles at max_digits10 so they round-trip exactly):
//   skimjoin.checkpoint v2
//   shards <ingest_shards>
//   nextid <next_query_id>
//   streams <count>
//     <name> <domain> <element_count> <absorbed> <batches> <dropped>
//       <merges> <absorb_nanos> <merge_nanos>
//   relations <count>
//     <name> <arity> <domain> <tuple_count>
//   queries <count>
//     <id> <kind> <seed> <supported> <kind-specific spec fields...>
//   metrics <count>                        (v2 only)
//     <name> <value>
//   end
// The metrics block snapshots every COUNTER in the engine's registry
// (names percent-encoded) so a restored engine keeps its cumulative
// counts; gauges and histograms are derived/monitoring state and are
// rebuilt live. v1 manifests (no metrics block) still restore.
// Query ids are strictly ascending. `supported` is 0 for kinds whose
// synopses cannot be serialized (sampling / partitioned-AGMS join
// estimators, chain joins); those queries get no "query:<id>" section but
// are always present in the manifest — a restore must account for every
// one of them, never silently drop one.

#include <algorithm>
#include <cstdint>
#include <limits>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "query/engine.h"
#include "util/durable_file.h"
#include "util/failpoint.h"
#include "util/logging.h"

namespace skimjoin {
namespace query {
namespace {

// --- name encoding ---------------------------------------------------------

// Stream/relation names are arbitrary bytes but the manifest is tokenized on
// whitespace, so encode anything outside the printable-ASCII range (plus '%'
// itself) as %XX.
std::string PercentEncode(std::string_view raw) {
  static constexpr char kHex[] = "0123456789ABCDEF";
  std::string out;
  out.reserve(raw.size());
  for (const char c : raw) {
    const auto byte = static_cast<unsigned char>(c);
    if (byte <= 0x20 || byte >= 0x7f || byte == '%') {
      out.push_back('%');
      out.push_back(kHex[byte >> 4]);
      out.push_back(kHex[byte & 0xf]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

StatusOr<std::string> PercentDecode(const std::string& encoded) {
  std::string out;
  out.reserve(encoded.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    if (encoded[i] != '%') {
      out.push_back(encoded[i]);
      continue;
    }
    if (i + 2 >= encoded.size()) {
      return InvalidArgumentError("truncated percent escape in manifest name");
    }
    const int hi = HexValue(encoded[i + 1]);
    const int lo = HexValue(encoded[i + 2]);
    if (hi < 0 || lo < 0) {
      return InvalidArgumentError("bad percent escape in manifest name");
    }
    out.push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return out;
}

// --- enum tokens -----------------------------------------------------------

const char* EstimatorKindToken(core::EstimatorKind kind) {
  switch (kind) {
    case core::EstimatorKind::kAgms:
      return "agms";
    case core::EstimatorKind::kHashSketch:
      return "hashsketch";
    case core::EstimatorKind::kSkimmedSketch:
      return "skimmed";
    case core::EstimatorKind::kCountMin:
      return "countmin";
    case core::EstimatorKind::kSampling:
      return "sampling";
    case core::EstimatorKind::kPartitionedAgms:
      return "partitionedagms";
  }
  SKIMJOIN_CHECK(false) << "unhandled estimator kind";
  return "";
}

StatusOr<core::EstimatorKind> EstimatorKindFromToken(const std::string& token) {
  if (token == "agms") return core::EstimatorKind::kAgms;
  if (token == "hashsketch") return core::EstimatorKind::kHashSketch;
  if (token == "skimmed") return core::EstimatorKind::kSkimmedSketch;
  if (token == "countmin") return core::EstimatorKind::kCountMin;
  if (token == "sampling") return core::EstimatorKind::kSampling;
  if (token == "partitionedagms") return core::EstimatorKind::kPartitionedAgms;
  return InvalidArgumentError("unknown estimator kind in manifest: " + token);
}

// --- predicates ------------------------------------------------------------

void WritePredicate(std::ostream& out,
                    const std::optional<RangePredicate>& predicate) {
  if (predicate.has_value()) {
    out << "pred " << predicate->lo << ' ' << predicate->hi;
  } else {
    out << "nopred";
  }
}

StatusOr<std::optional<RangePredicate>> ReadPredicate(std::istream& in) {
  std::string token;
  if (!(in >> token)) {
    return InvalidArgumentError("manifest query line missing its predicate");
  }
  if (token == "nopred") return std::optional<RangePredicate>{};
  if (token != "pred") {
    return InvalidArgumentError("bad predicate token in manifest: " + token);
  }
  RangePredicate predicate;
  if (!(in >> predicate.lo >> predicate.hi)) {
    return InvalidArgumentError("malformed predicate bounds in manifest");
  }
  if (predicate.lo > predicate.hi) {
    return InvalidArgumentError("manifest predicate has lo > hi");
  }
  return std::optional<RangePredicate>{predicate};
}

// --- parsed manifest -------------------------------------------------------

struct ManifestStream {
  std::string name;
  uint64_t domain_size = 0;
  int64_t element_count = 0;
  ingest::IngestStats stats;
};

struct ManifestRelation {
  std::string name;
  uint64_t arity = 0;
  uint64_t domain_size = 0;
  int64_t tuple_count = 0;
};

// One manifest query line. `kind` selects which spec member is meaningful.
struct ManifestQuery {
  QueryId id = 0;
  std::string kind;
  uint64_t seed = 0;
  bool supported = false;
  JoinQuerySpec join;
  FrequencyQuerySpec frequency;
  DistinctCountQuerySpec distinct;
  TopKQuerySpec topk;
  QuantileQuerySpec quantile;
  RangeSumQuerySpec range_sum;
  ChainJoinQuerySpec chain;
};

struct Manifest {
  uint64_t shards = 1;
  QueryId next_query_id = 1;
  std::vector<ManifestStream> streams;
  std::vector<ManifestRelation> relations;
  std::vector<ManifestQuery> queries;
  // Registry counter snapshot (v2 manifests; empty for v1).
  std::vector<std::pair<std::string, uint64_t>> counters;
};

// Caps the count headers so a corrupt (but CRC-colliding) manifest cannot
// drive a huge allocation loop.
constexpr uint64_t kMaxManifestEntries = uint64_t{1} << 24;

StatusOr<std::string> ReadName(std::istream& in, const char* what) {
  std::string encoded;
  if (!(in >> encoded)) {
    return InvalidArgumentError(std::string("manifest truncated in ") + what);
  }
  return PercentDecode(encoded);
}

Status ExpectKeyword(std::istream& in, const char* keyword) {
  std::string token;
  if (!(in >> token) || token != keyword) {
    return InvalidArgumentError(std::string("manifest missing '") + keyword +
                                "' block");
  }
  return OkStatus();
}

StatusOr<ManifestQuery> ParseManifestQuery(std::istream& in) {
  ManifestQuery q;
  int supported = 0;
  if (!(in >> q.id >> q.kind >> q.seed >> supported)) {
    return InvalidArgumentError("malformed manifest query line");
  }
  if (q.id < 1) return InvalidArgumentError("manifest query id must be >= 1");
  if (supported != 0 && supported != 1) {
    return InvalidArgumentError("manifest query supported flag must be 0/1");
  }
  q.supported = supported == 1;

  if (q.kind == "join") {
    SKIMJOIN_ASSIGN_OR_RETURN(q.join.left_stream,
                              ReadName(in, "join query streams"));
    SKIMJOIN_ASSIGN_OR_RETURN(q.join.right_stream,
                              ReadName(in, "join query streams"));
    std::string estimator_token;
    int left_input = 0;
    int right_input = 0;
    int use_dyadic = 0;
    core::EstimatorSpec& est = q.join.estimator;
    if (!(in >> estimator_token >> est.space_counters >> est.agms_num_medians >>
          est.num_tables >> est.threshold_scale >> est.recurse_slack >>
          est.skim_margin >> use_dyadic >> left_input >> right_input)) {
      return InvalidArgumentError("malformed join query fields in manifest");
    }
    SKIMJOIN_ASSIGN_OR_RETURN(est.kind,
                              EstimatorKindFromToken(estimator_token));
    est.skimmed_use_dyadic = use_dyadic != 0;
    q.join.left_input = left_input == 0 ? AggregateInput::kCount
                                        : AggregateInput::kMeasure;
    q.join.right_input = right_input == 0 ? AggregateInput::kCount
                                          : AggregateInput::kMeasure;
    SKIMJOIN_ASSIGN_OR_RETURN(q.join.left_predicate, ReadPredicate(in));
    SKIMJOIN_ASSIGN_OR_RETURN(q.join.right_predicate, ReadPredicate(in));
  } else if (q.kind == "frequency") {
    int use_dyadic = 0;
    SKIMJOIN_ASSIGN_OR_RETURN(q.frequency.stream,
                              ReadName(in, "frequency query stream"));
    if (!(in >> q.frequency.space_counters >> q.frequency.num_tables >>
          use_dyadic)) {
      return InvalidArgumentError("malformed frequency query in manifest");
    }
    q.frequency.use_dyadic = use_dyadic != 0;
    SKIMJOIN_ASSIGN_OR_RETURN(q.frequency.predicate, ReadPredicate(in));
  } else if (q.kind == "distinct") {
    SKIMJOIN_ASSIGN_OR_RETURN(q.distinct.stream,
                              ReadName(in, "distinct query stream"));
    if (!(in >> q.distinct.num_maps)) {
      return InvalidArgumentError("malformed distinct query in manifest");
    }
    SKIMJOIN_ASSIGN_OR_RETURN(q.distinct.predicate, ReadPredicate(in));
  } else if (q.kind == "topk") {
    SKIMJOIN_ASSIGN_OR_RETURN(q.topk.stream,
                              ReadName(in, "top-k query stream"));
    if (!(in >> q.topk.k >> q.topk.space_counters >> q.topk.num_tables)) {
      return InvalidArgumentError("malformed top-k query in manifest");
    }
    SKIMJOIN_ASSIGN_OR_RETURN(q.topk.predicate, ReadPredicate(in));
  } else if (q.kind == "quantile") {
    SKIMJOIN_ASSIGN_OR_RETURN(q.quantile.stream,
                              ReadName(in, "quantile query stream"));
    if (!(in >> q.quantile.epsilon)) {
      return InvalidArgumentError("malformed quantile query in manifest");
    }
    SKIMJOIN_ASSIGN_OR_RETURN(q.quantile.predicate, ReadPredicate(in));
  } else if (q.kind == "rangesum") {
    SKIMJOIN_ASSIGN_OR_RETURN(q.range_sum.stream,
                              ReadName(in, "range-sum query stream"));
    if (!(in >> q.range_sum.coefficient_budget)) {
      return InvalidArgumentError("malformed range-sum query in manifest");
    }
    SKIMJOIN_ASSIGN_OR_RETURN(q.range_sum.predicate, ReadPredicate(in));
  } else if (q.kind == "chain") {
    uint64_t relation_count = 0;
    if (!(in >> relation_count) || relation_count < 2 ||
        relation_count > kMaxManifestEntries) {
      return InvalidArgumentError("bad chain relation count in manifest");
    }
    q.chain.relations.reserve(relation_count);
    for (uint64_t r = 0; r < relation_count; ++r) {
      SKIMJOIN_ASSIGN_OR_RETURN(std::string name,
                                ReadName(in, "chain query relations"));
      q.chain.relations.push_back(std::move(name));
    }
    std::string method;
    if (!(in >> method >> q.chain.num_means >> q.chain.num_medians >>
          q.chain.num_tables >> q.chain.num_buckets)) {
      return InvalidArgumentError("malformed chain query in manifest");
    }
    if (method == "agmsgrid") {
      q.chain.method = ChainJoinQuerySpec::Method::kAgmsGrid;
    } else if (method == "hashsketch") {
      q.chain.method = ChainJoinQuerySpec::Method::kHashSketch;
    } else {
      return InvalidArgumentError("unknown chain method in manifest: " +
                                  method);
    }
  } else {
    return InvalidArgumentError("unknown query kind in manifest: " + q.kind);
  }
  return q;
}

StatusOr<Manifest> ParseManifest(const std::string& payload) {
  std::istringstream in(payload);
  std::string magic, version;
  if (!(in >> magic >> version) || magic != "skimjoin.checkpoint" ||
      (version != "v1" && version != "v2")) {
    return InvalidArgumentError("not a skimjoin checkpoint v1/v2 manifest");
  }
  Manifest manifest;
  SKIMJOIN_RETURN_IF_ERROR(ExpectKeyword(in, "shards"));
  if (!(in >> manifest.shards) || manifest.shards < 1) {
    return InvalidArgumentError("bad shard count in manifest");
  }
  SKIMJOIN_RETURN_IF_ERROR(ExpectKeyword(in, "nextid"));
  if (!(in >> manifest.next_query_id) || manifest.next_query_id < 1) {
    return InvalidArgumentError("bad next query id in manifest");
  }

  SKIMJOIN_RETURN_IF_ERROR(ExpectKeyword(in, "streams"));
  uint64_t stream_count = 0;
  if (!(in >> stream_count) || stream_count > kMaxManifestEntries) {
    return InvalidArgumentError("bad stream count in manifest");
  }
  manifest.streams.reserve(stream_count);
  for (uint64_t i = 0; i < stream_count; ++i) {
    ManifestStream s;
    SKIMJOIN_ASSIGN_OR_RETURN(s.name, ReadName(in, "stream table"));
    ingest::IngestStats& st = s.stats;
    if (!(in >> s.domain_size >> s.element_count >> st.elements_absorbed >>
          st.batches >> st.elements_dropped >> st.merges >> st.absorb_nanos >>
          st.merge_nanos)) {
      return InvalidArgumentError("malformed stream line in manifest");
    }
    manifest.streams.push_back(std::move(s));
  }

  SKIMJOIN_RETURN_IF_ERROR(ExpectKeyword(in, "relations"));
  uint64_t relation_count = 0;
  if (!(in >> relation_count) || relation_count > kMaxManifestEntries) {
    return InvalidArgumentError("bad relation count in manifest");
  }
  manifest.relations.reserve(relation_count);
  for (uint64_t i = 0; i < relation_count; ++i) {
    ManifestRelation r;
    SKIMJOIN_ASSIGN_OR_RETURN(r.name, ReadName(in, "relation table"));
    if (!(in >> r.arity >> r.domain_size >> r.tuple_count)) {
      return InvalidArgumentError("malformed relation line in manifest");
    }
    manifest.relations.push_back(std::move(r));
  }

  SKIMJOIN_RETURN_IF_ERROR(ExpectKeyword(in, "queries"));
  uint64_t query_count = 0;
  if (!(in >> query_count) || query_count > kMaxManifestEntries) {
    return InvalidArgumentError("bad query count in manifest");
  }
  manifest.queries.reserve(query_count);
  QueryId previous_id = 0;
  for (uint64_t i = 0; i < query_count; ++i) {
    SKIMJOIN_ASSIGN_OR_RETURN(ManifestQuery q, ParseManifestQuery(in));
    if (q.id <= previous_id) {
      return InvalidArgumentError("manifest query ids are not ascending");
    }
    if (q.id >= manifest.next_query_id) {
      return InvalidArgumentError(
          "manifest query id exceeds the recorded next query id");
    }
    previous_id = q.id;
    manifest.queries.push_back(std::move(q));
  }

  if (version == "v2") {
    SKIMJOIN_RETURN_IF_ERROR(ExpectKeyword(in, "metrics"));
    uint64_t counter_count = 0;
    if (!(in >> counter_count) || counter_count > kMaxManifestEntries) {
      return InvalidArgumentError("bad metrics count in manifest");
    }
    manifest.counters.reserve(counter_count);
    for (uint64_t i = 0; i < counter_count; ++i) {
      SKIMJOIN_ASSIGN_OR_RETURN(std::string name,
                                ReadName(in, "metrics table"));
      uint64_t value = 0;
      if (!(in >> value)) {
        return InvalidArgumentError("malformed metrics line in manifest");
      }
      manifest.counters.emplace_back(std::move(name), value);
    }
  }

  std::string sentinel;
  if (!(in >> sentinel) || sentinel != "end") {
    return InvalidArgumentError("manifest missing its end sentinel");
  }
  return manifest;
}

constexpr char kMetaPrefix[] = "meta:";
constexpr char kQueryPrefix[] = "query:";

bool IsSerializableJoinKind(core::EstimatorKind kind) {
  return kind != core::EstimatorKind::kSampling &&
         kind != core::EstimatorKind::kPartitionedAgms;
}

}  // namespace

// --- SaveCheckpoint --------------------------------------------------------

Status Engine::SaveCheckpoint(
    const std::string& path,
    const std::map<std::string, std::string>& metadata) const {
  metrics::TraceSpan span("checkpoint_save", "checkpoint");
  // A checkpoint must capture an exact state: linearize any in-flight
  // concurrent ingestion before serializing synopses (writer-thread only,
  // so the const_cast is the same convention as SerializeQuerySynopsis).
  const_cast<Engine*>(this)->FlushIngest();
  // The manifest (and the per-query sections) walk every query ascending by
  // id, so the file layout is deterministic for a given engine state.
  enum class Kind { kJoin, kFrequency, kDistinct, kTopK, kQuantile,
                    kRangeSum, kChain };
  std::vector<std::pair<QueryId, Kind>> order;
  order.reserve(num_queries());
  for (const auto& entry : join_queries_) {
    order.emplace_back(entry.first, Kind::kJoin);
  }
  for (const auto& entry : frequency_queries_) {
    order.emplace_back(entry.first, Kind::kFrequency);
  }
  for (const auto& entry : distinct_queries_) {
    order.emplace_back(entry.first, Kind::kDistinct);
  }
  for (const auto& entry : topk_queries_) {
    order.emplace_back(entry.first, Kind::kTopK);
  }
  for (const auto& entry : quantile_queries_) {
    order.emplace_back(entry.first, Kind::kQuantile);
  }
  for (const auto& entry : range_sum_queries_) {
    order.emplace_back(entry.first, Kind::kRangeSum);
  }
  for (const auto& entry : chain_queries_) {
    order.emplace_back(entry.first, Kind::kChain);
  }
  std::sort(order.begin(), order.end());

  std::ostringstream manifest;
  manifest.precision(std::numeric_limits<double>::max_digits10);
  manifest << "skimjoin.checkpoint v2\n"
           << "shards " << ingest_options_.shards << '\n'
           << "nextid " << next_query_id_ << '\n';
  manifest << "streams " << streams_.size() << '\n';
  for (const StreamState& s : streams_) {
    const ingest::IngestStats st = IngestStatsFor(s);
    manifest << PercentEncode(s.spec.name) << ' ' << s.spec.domain_size << ' '
             << s.element_count << ' ' << st.elements_absorbed << ' '
             << st.batches << ' ' << st.elements_dropped << ' ' << st.merges
             << ' ' << st.absorb_nanos << ' ' << st.merge_nanos << '\n';
  }
  manifest << "relations " << relations_.size() << '\n';
  for (const RelationState& r : relations_) {
    manifest << PercentEncode(r.spec.name) << ' ' << r.spec.arity << ' '
             << r.spec.domain_size << ' ' << r.tuple_count << '\n';
  }
  manifest << "queries " << order.size() << '\n';
  std::vector<std::pair<QueryId, bool>> supported_flags;
  supported_flags.reserve(order.size());
  for (const auto& [id, kind] : order) {
    bool supported = true;
    switch (kind) {
      case Kind::kJoin: {
        const JoinQueryState& q = join_queries_.at(id);
        supported = IsSerializableJoinKind(q.spec.estimator.kind);
        const core::EstimatorSpec& est = q.spec.estimator;
        manifest << id << " join " << q.seed << ' ' << (supported ? 1 : 0)
                 << ' ' << PercentEncode(q.spec.left_stream) << ' '
                 << PercentEncode(q.spec.right_stream) << ' '
                 << EstimatorKindToken(est.kind) << ' ' << est.space_counters
                 << ' ' << est.agms_num_medians << ' ' << est.num_tables << ' '
                 << est.threshold_scale << ' ' << est.recurse_slack << ' '
                 << est.skim_margin << ' ' << (est.skimmed_use_dyadic ? 1 : 0)
                 << ' '
                 << (q.spec.left_input == AggregateInput::kCount ? 0 : 1)
                 << ' '
                 << (q.spec.right_input == AggregateInput::kCount ? 0 : 1)
                 << ' ';
        WritePredicate(manifest, q.spec.left_predicate);
        manifest << ' ';
        WritePredicate(manifest, q.spec.right_predicate);
        manifest << '\n';
        break;
      }
      case Kind::kFrequency: {
        const FrequencyQueryState& q = frequency_queries_.at(id);
        manifest << id << " frequency " << q.seed << " 1 "
                 << PercentEncode(q.spec.stream) << ' '
                 << q.spec.space_counters << ' ' << q.spec.num_tables << ' '
                 << (q.spec.use_dyadic ? 1 : 0) << ' ';
        WritePredicate(manifest, q.spec.predicate);
        manifest << '\n';
        break;
      }
      case Kind::kDistinct: {
        const DistinctQueryState& q = distinct_queries_.at(id);
        manifest << id << " distinct " << q.seed << " 1 "
                 << PercentEncode(q.spec.stream) << ' ' << q.spec.num_maps
                 << ' ';
        WritePredicate(manifest, q.spec.predicate);
        manifest << '\n';
        break;
      }
      case Kind::kTopK: {
        const TopKQueryState& q = topk_queries_.at(id);
        manifest << id << " topk " << q.seed << " 1 "
                 << PercentEncode(q.spec.stream) << ' ' << q.spec.k << ' '
                 << q.spec.space_counters << ' ' << q.spec.num_tables << ' ';
        WritePredicate(manifest, q.spec.predicate);
        manifest << '\n';
        break;
      }
      case Kind::kQuantile: {
        const QuantileQueryState& q = quantile_queries_.at(id);
        manifest << id << " quantile 0 1 " << PercentEncode(q.spec.stream)
                 << ' ' << q.spec.epsilon << ' ';
        WritePredicate(manifest, q.spec.predicate);
        manifest << '\n';
        break;
      }
      case Kind::kRangeSum: {
        const RangeSumQueryState& q = range_sum_queries_.at(id);
        manifest << id << " rangesum 0 1 " << PercentEncode(q.spec.stream)
                 << ' ' << q.spec.coefficient_budget << ' ';
        WritePredicate(manifest, q.spec.predicate);
        manifest << '\n';
        break;
      }
      case Kind::kChain: {
        const ChainJoinQueryState& q = chain_queries_.at(id);
        supported = false;  // neither chain estimator is serializable yet
        manifest << id << " chain " << q.seed << " 0 "
                 << q.spec.relations.size();
        for (const std::string& name : q.spec.relations) {
          manifest << ' ' << PercentEncode(name);
        }
        manifest << ' '
                 << (q.spec.method == ChainJoinQuerySpec::Method::kAgmsGrid
                         ? "agmsgrid"
                         : "hashsketch")
                 << ' ' << q.spec.num_means << ' ' << q.spec.num_medians << ' '
                 << q.spec.num_tables << ' ' << q.spec.num_buckets << '\n';
        break;
      }
    }
    supported_flags.emplace_back(id, supported);
  }
  // Counters only: they carry cumulative history a restored engine cannot
  // recompute. Gauges and histograms are monitoring views rebuilt live.
  const metrics::Snapshot metrics_snapshot = metrics_.TakeSnapshot();
  manifest << "metrics " << metrics_snapshot.counters.size() << '\n';
  for (const auto& [name, value] : metrics_snapshot.counters) {
    manifest << PercentEncode(name) << ' ' << value << '\n';
  }
  manifest << "end\n";

  SKIMJOIN_ASSIGN_OR_RETURN(util::DurableFileWriter writer,
                            util::DurableFileWriter::Create(path));
  SKIMJOIN_RETURN_IF_ERROR(writer.AppendSection("manifest", manifest.str()));
  {
    const Status injected = failpoint::Check("checkpoint:after-header");
    if (!injected.ok()) {
      if (failpoint::IsSimulatedCrash(injected)) writer.Abandon();
      return injected;
    }
  }
  for (const auto& [key, value] : metadata) {
    SKIMJOIN_RETURN_IF_ERROR(writer.AppendSection(kMetaPrefix + key, value));
  }

  auto flags_it = supported_flags.begin();
  for (const auto& [id, kind] : order) {
    const bool supported = flags_it->second;
    ++flags_it;
    if (!supported) continue;
    std::ostringstream payload;
    switch (kind) {
      case Kind::kJoin:
        SKIMJOIN_RETURN_IF_ERROR(
            join_queries_.at(id).estimator->SerializeTo(payload));
        break;
      case Kind::kFrequency:
        SKIMJOIN_RETURN_IF_ERROR(
            frequency_queries_.at(id).sketch.SerializeTo(payload));
        break;
      case Kind::kDistinct:
        SKIMJOIN_RETURN_IF_ERROR(
            distinct_queries_.at(id).sketch.SerializeTo(payload));
        break;
      case Kind::kTopK:
        SKIMJOIN_RETURN_IF_ERROR(
            topk_queries_.at(id).tracker.SerializeTo(payload));
        break;
      case Kind::kQuantile:
        SKIMJOIN_RETURN_IF_ERROR(
            quantile_queries_.at(id).summary.SerializeTo(payload));
        break;
      case Kind::kRangeSum:
        SKIMJOIN_RETURN_IF_ERROR(
            range_sum_queries_.at(id).synopsis.SerializeTo(payload));
        break;
      case Kind::kChain:
        SKIMJOIN_CHECK(false) << "chain queries are never serialized";
        break;
    }
    SKIMJOIN_RETURN_IF_ERROR(writer.AppendSection(
        kQueryPrefix + std::to_string(id), payload.str()));
  }
  return writer.Commit();
}

// --- RestoreCheckpoint -----------------------------------------------------

StatusOr<RestoreReport> Engine::RestoreCheckpoint(const std::string& path,
                                                  const RestoreOptions& options) {
  metrics::TraceSpan span("checkpoint_restore", "checkpoint");
  if (num_streams() != 0 || num_relations() != 0 || num_queries() != 0) {
    return FailedPreconditionError(
        "RestoreCheckpoint requires an empty engine (call Clear() first)");
  }
  // An empty engine holds no queries, so the read-path cache must already
  // be empty — but drop defensively: restored query ids restart from 1 and
  // the restored epoch counters are re-seeded below, so an entry surviving
  // from a previous life could collide with a fresh (id, epochs) pair.
  query_cache_.DropAll();

  // Read every intact section. On the first read error: strict mode fails
  // outright; partial mode keeps what was read (sections are CRC-verified
  // individually, so everything before the error is trustworthy).
  SKIMJOIN_ASSIGN_OR_RETURN(util::DurableFileReader reader,
                            util::DurableFileReader::Open(path));
  std::vector<util::DurableSection> sections;
  Status read_error = OkStatus();
  for (;;) {
    StatusOr<std::optional<util::DurableSection>> next = reader.Next();
    if (!next.ok()) {
      read_error = next.status();
      break;
    }
    if (!next->has_value()) break;
    sections.push_back(*std::move(*next));
  }
  if (!read_error.ok() && !options.allow_partial) return read_error;

  // The manifest is mandatory even for a partial restore: without it there
  // is no record of what the checkpoint held, so "recover what's intact"
  // has no meaning.
  if (sections.empty() || sections.front().name != "manifest") {
    if (!read_error.ok()) return read_error;
    return InvalidArgumentError("checkpoint has no manifest section");
  }
  SKIMJOIN_ASSIGN_OR_RETURN(Manifest manifest,
                            ParseManifest(sections.front().payload));

  RestoreReport report;
  std::map<QueryId, const std::string*> query_payloads;
  for (size_t i = 1; i < sections.size(); ++i) {
    const util::DurableSection& section = sections[i];
    if (section.name.rfind(kMetaPrefix, 0) == 0) {
      report.metadata[section.name.substr(sizeof(kMetaPrefix) - 1)] =
          section.payload;
      continue;
    }
    if (section.name.rfind(kQueryPrefix, 0) == 0) {
      QueryId id = 0;
      std::istringstream id_in(section.name.substr(sizeof(kQueryPrefix) - 1));
      if (!(id_in >> id) || !id_in.eof()) {
        if (options.allow_partial) continue;
        Clear();
        return InvalidArgumentError("bad query section name: " + section.name);
      }
      query_payloads[id] = &section.payload;
      continue;
    }
    if (!options.allow_partial) {
      Clear();
      return InvalidArgumentError("unknown checkpoint section: " +
                                  section.name);
    }
  }

  // `fail` wraps every fatal exit so the engine is never left half-built.
  auto fail = [this](Status status) {
    Clear();
    return status;
  };

  for (size_t i = 0; i < manifest.streams.size(); ++i) {
    const ManifestStream& s = manifest.streams[i];
    StatusOr<StreamId> id =
        RegisterStream(StreamSpec{s.name, s.domain_size});
    if (!id.ok()) return fail(id.status());
    if (*id != i) {
      return fail(InternalError("stream ids drifted during restore"));
    }
    streams_[i].element_count = s.element_count;
    StreamState& state = streams_[i];
    state.absorbed->Reset(s.stats.elements_absorbed);
    state.batches->Reset(s.stats.batches);
    state.dropped->Reset(s.stats.elements_dropped);
    state.merges->Reset(s.stats.merges);
    state.absorb_nanos->Reset(s.stats.absorb_nanos);
    state.merge_nanos->Reset(s.stats.merge_nanos);
  }
  for (size_t i = 0; i < manifest.relations.size(); ++i) {
    const ManifestRelation& r = manifest.relations[i];
    StatusOr<StreamId> id =
        RegisterRelation(RelationSpec{r.name, r.arity, r.domain_size});
    if (!id.ok()) return fail(id.status());
    if (*id != i) {
      return fail(InternalError("relation ids drifted during restore"));
    }
    relations_[i].tuple_count = r.tuple_count;
  }

  for (const ManifestQuery& q : manifest.queries) {
    // Queries must come back under their original ids; steer the id counter
    // to the recorded value before each registration.
    next_query_id_ = q.id;

    // Unsupported kinds first: the manifest listed them so the restore must
    // account for them — strict mode refuses, partial mode re-registers
    // what it can (empty) and reports the loss.
    if (!q.supported) {
      if (!options.allow_partial) {
        return fail(UnimplementedError(
            "checkpoint query " + std::to_string(q.id) + " (" + q.kind +
            ") has no serializable synopsis; restore with allow_partial to "
            "recover the rest"));
      }
      if (q.kind == "chain") {
        StatusOr<QueryId> created = AddChainJoinQuery(q.chain, q.seed);
        if (!created.ok()) return fail(created.status());
        if (*created != q.id) {
          return fail(InternalError("query ids drifted during restore"));
        }
        report.lost.push_back(
            {q.id, q.kind,
             "chain-join synopsis state is not serializable; "
             "re-registered empty"});
      } else if (q.kind == "join" &&
                 q.join.estimator.kind == core::EstimatorKind::kSampling) {
        StatusOr<QueryId> created = AddJoinQuery(q.join, q.seed);
        if (!created.ok()) return fail(created.status());
        if (*created != q.id) {
          return fail(InternalError("query ids drifted during restore"));
        }
        report.lost.push_back(
            {q.id, q.kind,
             "sampling join synopsis state is not serializable; "
             "re-registered empty"});
      } else {
        // Partitioned-AGMS joins need a partition plan the manifest cannot
        // carry, so the query cannot even be re-registered.
        report.lost.push_back(
            {q.id, q.kind,
             "dropped entirely: the estimator requires state (e.g. a "
             "partition plan) a checkpoint cannot carry"});
      }
      continue;
    }

    // Supported query: re-register from the spec, then splice the saved
    // synopsis in. A synopsis failure is fatal in strict mode; in partial
    // mode the query survives with an empty synopsis and a reported loss.
    StatusOr<QueryId> created = [&]() -> StatusOr<QueryId> {
      if (q.kind == "join") return AddJoinQuery(q.join, q.seed);
      if (q.kind == "frequency") return AddFrequencyQuery(q.frequency, q.seed);
      if (q.kind == "distinct") {
        return AddDistinctCountQuery(q.distinct, q.seed);
      }
      if (q.kind == "topk") return AddTopKQuery(q.topk, q.seed);
      if (q.kind == "quantile") return AddQuantileQuery(q.quantile);
      if (q.kind == "rangesum") return AddRangeSumQuery(q.range_sum);
      return InvalidArgumentError(
          "manifest marks unserializable kind as supported: " + q.kind);
    }();
    if (!created.ok()) return fail(created.status());
    if (*created != q.id) {
      return fail(InternalError("query ids drifted during restore"));
    }

    const auto payload_it = query_payloads.find(q.id);
    Status synopsis_status = OkStatus();
    if (payload_it == query_payloads.end()) {
      synopsis_status = IoError("synopsis section for query " +
                                std::to_string(q.id) + " is missing");
    } else {
      std::istringstream in(*payload_it->second);
      if (q.kind == "join") {
        synopsis_status = join_queries_.at(q.id).estimator->RestoreFrom(in);
      } else if (q.kind == "frequency") {
        StatusOr<core::SkimmedSketch> sketch =
            core::SkimmedSketch::DeserializeFrom(in);
        synopsis_status = sketch.status();
        if (sketch.ok()) {
          FrequencyQueryState& state = frequency_queries_.at(q.id);
          if (!sketch->CompatibleWith(state.sketch)) {
            synopsis_status = InvalidArgumentError(
                "restored frequency sketch disagrees with its spec");
          } else {
            state.sketch = *std::move(sketch);
            // The restored sketch's cache tallies start from zero; restart
            // the cache-delta bookkeeping with them.
            state.cache_hits_seen = 0;
            state.cache_misses_seen = 0;
          }
        }
      } else if (q.kind == "distinct") {
        StatusOr<sketch::FmSketch> sketch = sketch::FmSketch::DeserializeFrom(in);
        synopsis_status = sketch.status();
        if (sketch.ok()) {
          DistinctQueryState& state = distinct_queries_.at(q.id);
          if (!sketch->CompatibleWith(state.sketch)) {
            synopsis_status = InvalidArgumentError(
                "restored FM sketch disagrees with its spec");
          } else {
            state.sketch = *std::move(sketch);
          }
        }
      } else if (q.kind == "topk") {
        StatusOr<core::TopKTracker> tracker =
            core::TopKTracker::DeserializeFrom(in);
        synopsis_status = tracker.status();
        if (tracker.ok()) {
          TopKQueryState& state = topk_queries_.at(q.id);
          if (tracker->k() != state.tracker.k()) {
            synopsis_status = InvalidArgumentError(
                "restored top-k tracker disagrees with its spec");
          } else {
            state.tracker = *std::move(tracker);
          }
        }
      } else if (q.kind == "quantile") {
        StatusOr<stream::GkQuantileSummary> summary =
            stream::GkQuantileSummary::DeserializeFrom(in);
        synopsis_status = summary.status();
        if (summary.ok()) {
          QuantileQueryState& state = quantile_queries_.at(q.id);
          if (summary->epsilon() != state.summary.epsilon()) {
            synopsis_status = InvalidArgumentError(
                "restored quantile summary disagrees with its spec");
          } else {
            state.summary = *std::move(summary);
          }
        }
      } else {  // rangesum
        StatusOr<stream::WaveletSynopsis> synopsis =
            stream::WaveletSynopsis::DeserializeFrom(in);
        synopsis_status = synopsis.status();
        if (synopsis.ok()) {
          RangeSumQueryState& state = range_sum_queries_.at(q.id);
          if (synopsis->domain_size() != state.synopsis.domain_size()) {
            synopsis_status = InvalidArgumentError(
                "restored wavelet synopsis disagrees with its stream domain");
          } else {
            state.synopsis = *std::move(synopsis);
          }
        }
      }
    }
    if (!synopsis_status.ok()) {
      if (!options.allow_partial) return fail(synopsis_status);
      report.lost.push_back({q.id, q.kind,
                             "synopsis not recovered (" +
                                 synopsis_status.ToString() +
                                 "); re-registered empty"});
    }
  }

  next_query_id_ = manifest.next_query_id;
  {
    const Status shards = SetIngestShards(manifest.shards);
    if (!shards.ok()) return fail(shards);
  }

  // Counters last, so the saved cumulative values override anything the
  // re-registration steps above may have touched. Stream ingest counters
  // appear both in the stream lines and here; the two sources were written
  // from the same snapshot, so the overwrite is a no-op for them.
  for (const auto& [name, value] : manifest.counters) {
    metrics_.GetCounter(name)->Reset(value);
  }
  return report;
}

}  // namespace query
}  // namespace skimjoin
