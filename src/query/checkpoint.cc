// Engine::SaveCheckpoint / Engine::RestoreCheckpoint / Engine::Clear — the
// crash-safe persistence layer described in query/checkpoint.h.
//
// Checkpoint layout (sections of a util::DurableFileWriter file):
//   "manifest"    text manifest, format below
//   "meta:<key>"  caller metadata values, one section per key
//   "query:<id>"  serialized synopsis of each SUPPORTED query, id ascending
//
// Manifest text format (whitespace-separated; names percent-encoded so they
// survive the tokenizer):
//   skimjoin.checkpoint v2
//   shards <ingest_shards>
//   nextid <next_query_id>
//   streams <count>
//     <name> <domain> <element_count> <absorbed> <batches> <dropped>
//       <merges> <absorb_nanos> <merge_nanos>
//   relations <count>
//     <name> <arity> <domain> <tuple_count>
//   queries <count>
//     <id> <kind> <seed> <supported> <spec fields...>
//   metrics <count>                        (v2 only)
//     <name> <value>
//   end
// Each query line carries its spec in query/spec_codec.h's record (kind
// token, then its fields). The metrics block snapshots every COUNTER in
// the engine's registry (names percent-encoded) so a restored engine keeps
// its cumulative counts; gauges and histograms are derived/monitoring
// state and are rebuilt live. v1 manifests (no metrics block) still
// restore.
// Query ids are strictly ascending. `supported` is 0 for queries whose
// synopsis Engine::SerializeQuerySynopsis cannot write (sampling and
// partitioned-AGMS join estimators; checkpoints written before chain joins
// were serializable also flag those 0). Such queries get no "query:<id>"
// section but are always present in the manifest — a restore must account
// for every one of them, never silently drop one.

#include <cstdint>
#include <optional>
#include <span>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "query/engine.h"
#include "query/spec_codec.h"
#include "util/durable_file.h"
#include "util/failpoint.h"

namespace skimjoin {
namespace query {
namespace {

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

// One manifest query line.
struct ManifestQuery {
  QueryId id = 0;
  uint64_t seed = 0;
  bool supported = false;
  QuerySpec spec;
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
  std::string kind;
  int supported = 0;
  if (!(in >> q.id >> kind >> q.seed >> supported)) {
    return InvalidArgumentError("malformed manifest query line");
  }
  if (q.id < 1) return InvalidArgumentError("manifest query id must be >= 1");
  if (supported != 0 && supported != 1) {
    return InvalidArgumentError("manifest query supported flag must be 0/1");
  }
  q.supported = supported == 1;
  SKIMJOIN_ASSIGN_OR_RETURN(q.spec, ReadQuerySpec(kind, in));
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
    SKIMJOIN_ASSIGN_OR_RETURN(s.name, ReadEncodedName(in, "stream table"));
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
    SKIMJOIN_ASSIGN_OR_RETURN(r.name, ReadEncodedName(in, "relation table"));
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
                                ReadEncodedName(in, "metrics table"));
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
  std::ostringstream manifest;
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
  // Queries ascending by id, so the file layout is deterministic for a
  // given engine state. A query is supported exactly when the one
  // synopsis dispatch can write it.
  manifest << "queries " << queries_.size() << '\n';
  std::vector<std::pair<QueryId, std::string>> synopses;
  for (const auto& [id, q] : queries_) {
    std::string synopsis;
    const Status serialized = SerializeQuerySynopsis(id, &synopsis);
    if (!serialized.ok() && serialized.code() != StatusCode::kUnimplemented) {
      return serialized;
    }
    manifest << id << ' ' << QueryKindName(q.spec) << ' ' << q.seed << ' '
             << (serialized.ok() ? 1 : 0) << ' ';
    WriteQuerySpec(manifest, q.spec);
    manifest << '\n';
    if (serialized.ok()) synopses.emplace_back(id, std::move(synopsis));
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

  for (const auto& [id, synopsis] : synopses) {
    SKIMJOIN_RETURN_IF_ERROR(
        writer.AppendSection(kQueryPrefix + std::to_string(id), synopsis));
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
    const std::string kind = QueryKindName(q.spec);
    // Unsupported queries have no synopsis to restore: strict mode
    // refuses, partial mode re-registers what it can (empty) and reports
    // the loss.
    if (!q.supported && !options.allow_partial) {
      return fail(UnimplementedError(
          "checkpoint query " + std::to_string(q.id) + " (" + kind +
          ") has no serializable synopsis; restore with allow_partial to "
          "recover the rest"));
    }
    // Queries must come back under their original ids; steer the id counter
    // to the recorded value before each registration.
    next_query_id_ = q.id;
    const StatusOr<QueryId> created = AddQuery(q.spec, q.seed);
    if (created.ok() && *created != q.id) {
      return fail(InternalError("query ids drifted during restore"));
    }
    if (!q.supported) {
      report.lost.push_back(
          {q.id, kind,
           created.ok() ? "synopsis state is not serializable; "
                          "re-registered empty"
                        : "dropped entirely: " + created.status().ToString()});
      continue;
    }
    if (!created.ok()) return fail(created.status());

    // Splice the saved synopsis in. A synopsis failure is fatal in strict
    // mode; in partial mode the query survives with an empty synopsis and
    // a reported loss.
    const auto payload_it = query_payloads.find(q.id);
    const Status synopsis_status =
        payload_it == query_payloads.end()
            ? IoError("synopsis section for query " + std::to_string(q.id) +
                      " is missing")
            : LoadQuerySynopsis(
                  q.id, std::span<const std::string>(payload_it->second, 1));
    if (!synopsis_status.ok()) {
      if (!options.allow_partial) return fail(synopsis_status);
      report.lost.push_back({q.id, kind,
                             "synopsis not recovered (" +
                                 synopsis_status.ToString() +
                                 "); re-registered empty"});
    }
  }

  next_query_id_ = manifest.next_query_id;
  {
    IngestOptions ingest = ingest_options_;
    ingest.shards = manifest.shards;
    const Status shards = SetIngestOptions(ingest);
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
