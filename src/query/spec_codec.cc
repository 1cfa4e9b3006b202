#include "query/spec_codec.h"

#include <algorithm>
#include <charconv>
#include <cstdint>
#include <iterator>
#include <limits>
#include <optional>
#include <utility>
#include <variant>
#include <vector>

namespace skimjoin {
namespace query {
namespace {

// Kind tokens, in QuerySpec's alternative order.
constexpr const char* kKindNames[] = {"join",     "frequency", "distinct",
                                      "topk",     "quantile",  "rangesum",
                                      "chain"};
static_assert(std::size(kKindNames) == std::variant_size_v<QuerySpec>);

// Caps a chain's relation count even when plenty of bytes remain, so a
// hostile record cannot drive a huge allocation loop.
constexpr uint64_t kMaxChainRelations = uint64_t{1} << 24;

Status Malformed(const std::string& what) {
  return InvalidArgumentError("malformed " + what + " in query spec");
}

// --- scalar tokens ---------------------------------------------------------

// max_digits10 significant digits in %g style: every finite double reads
// back bit-exactly, and the text matches what a max_digits10 ostream wrote.
void WriteDouble(std::ostream& out, double value) {
  char buffer[32];
  const std::to_chars_result result =
      std::to_chars(buffer, buffer + sizeof(buffer), value,
                    std::chars_format::general,
                    std::numeric_limits<double>::max_digits10);
  out.write(buffer, result.ptr - buffer);
}

bool ReadDouble(std::istream& in, double* value) {
  std::string token;
  if (!(in >> token)) return false;
  const std::from_chars_result result =
      std::from_chars(token.data(), token.data() + token.size(), *value);
  return result.ec == std::errc() && result.ptr == token.data() + token.size();
}

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
    return InvalidArgumentError("query spec missing its predicate");
  }
  if (token == "nopred") return std::optional<RangePredicate>{};
  if (token != "pred") {
    return InvalidArgumentError("bad predicate token in query spec: " + token);
  }
  RangePredicate predicate;
  if (!(in >> predicate.lo >> predicate.hi)) {
    return Malformed("predicate bounds");
  }
  if (predicate.lo > predicate.hi) {
    return InvalidArgumentError("query spec predicate has lo > hi");
  }
  return std::optional<RangePredicate>{predicate};
}

// --- enum tokens -----------------------------------------------------------

// In core::EstimatorKind's enumerator order.
constexpr const char* kEstimatorTokens[] = {"agms",     "hashsketch",
                                            "skimmed",  "countmin",
                                            "sampling", "partitionedagms"};

StatusOr<core::EstimatorKind> EstimatorKindFromToken(const std::string& token) {
  for (size_t i = 0; i < std::size(kEstimatorTokens); ++i) {
    if (token == kEstimatorTokens[i]) return core::EstimatorKind(i);
  }
  return InvalidArgumentError("unknown estimator kind in query spec: " +
                              token);
}

// --- per-kind fields -------------------------------------------------------

void WriteFields(std::ostream& out, const JoinQuerySpec& spec) {
  const core::EstimatorSpec& est = spec.estimator;
  out << PercentEncode(spec.left_stream) << ' '
      << PercentEncode(spec.right_stream) << ' '
      << kEstimatorTokens[static_cast<size_t>(est.kind)] << ' '
      << est.space_counters << ' ' << est.agms_num_medians << ' '
      << est.num_tables << ' ';
  WriteDouble(out, est.threshold_scale);
  out << ' ';
  WriteDouble(out, est.recurse_slack);
  out << ' ';
  WriteDouble(out, est.skim_margin);
  out << ' ' << (est.skimmed_use_dyadic ? 1 : 0) << ' '
      << (spec.left_input == AggregateInput::kCount ? 0 : 1) << ' '
      << (spec.right_input == AggregateInput::kCount ? 0 : 1) << ' ';
  WritePredicate(out, spec.left_predicate);
  out << ' ';
  WritePredicate(out, spec.right_predicate);
}

Status ReadFields(std::istream& in, JoinQuerySpec* spec) {
  SKIMJOIN_ASSIGN_OR_RETURN(spec->left_stream,
                            ReadEncodedName(in, "join query streams"));
  SKIMJOIN_ASSIGN_OR_RETURN(spec->right_stream,
                            ReadEncodedName(in, "join query streams"));
  std::string estimator_token;
  int use_dyadic = 0;
  int left_input = 0;
  int right_input = 0;
  core::EstimatorSpec& est = spec->estimator;
  if (!(in >> estimator_token >> est.space_counters >> est.agms_num_medians >>
        est.num_tables) ||
      !ReadDouble(in, &est.threshold_scale) ||
      !ReadDouble(in, &est.recurse_slack) ||
      !ReadDouble(in, &est.skim_margin) ||
      !(in >> use_dyadic >> left_input >> right_input)) {
    return Malformed("join query fields");
  }
  SKIMJOIN_ASSIGN_OR_RETURN(est.kind, EstimatorKindFromToken(estimator_token));
  est.skimmed_use_dyadic = use_dyadic != 0;
  spec->left_input =
      left_input == 0 ? AggregateInput::kCount : AggregateInput::kMeasure;
  spec->right_input =
      right_input == 0 ? AggregateInput::kCount : AggregateInput::kMeasure;
  SKIMJOIN_ASSIGN_OR_RETURN(spec->left_predicate, ReadPredicate(in));
  SKIMJOIN_ASSIGN_OR_RETURN(spec->right_predicate, ReadPredicate(in));
  return OkStatus();
}

void WriteFields(std::ostream& out, const FrequencyQuerySpec& spec) {
  out << PercentEncode(spec.stream) << ' ' << spec.space_counters << ' '
      << spec.num_tables << ' ' << (spec.use_dyadic ? 1 : 0) << ' ';
  WritePredicate(out, spec.predicate);
}

Status ReadFields(std::istream& in, FrequencyQuerySpec* spec) {
  SKIMJOIN_ASSIGN_OR_RETURN(spec->stream,
                            ReadEncodedName(in, "frequency query stream"));
  int use_dyadic = 0;
  if (!(in >> spec->space_counters >> spec->num_tables >> use_dyadic)) {
    return Malformed("frequency query");
  }
  spec->use_dyadic = use_dyadic != 0;
  SKIMJOIN_ASSIGN_OR_RETURN(spec->predicate, ReadPredicate(in));
  return OkStatus();
}

void WriteFields(std::ostream& out, const DistinctCountQuerySpec& spec) {
  out << PercentEncode(spec.stream) << ' ' << spec.num_maps << ' ';
  WritePredicate(out, spec.predicate);
}

Status ReadFields(std::istream& in, DistinctCountQuerySpec* spec) {
  SKIMJOIN_ASSIGN_OR_RETURN(spec->stream,
                            ReadEncodedName(in, "distinct query stream"));
  if (!(in >> spec->num_maps)) return Malformed("distinct query");
  SKIMJOIN_ASSIGN_OR_RETURN(spec->predicate, ReadPredicate(in));
  return OkStatus();
}

void WriteFields(std::ostream& out, const TopKQuerySpec& spec) {
  out << PercentEncode(spec.stream) << ' ' << spec.k << ' '
      << spec.space_counters << ' ' << spec.num_tables << ' ';
  WritePredicate(out, spec.predicate);
}

Status ReadFields(std::istream& in, TopKQuerySpec* spec) {
  SKIMJOIN_ASSIGN_OR_RETURN(spec->stream,
                            ReadEncodedName(in, "top-k query stream"));
  if (!(in >> spec->k >> spec->space_counters >> spec->num_tables)) {
    return Malformed("top-k query");
  }
  SKIMJOIN_ASSIGN_OR_RETURN(spec->predicate, ReadPredicate(in));
  return OkStatus();
}

void WriteFields(std::ostream& out, const QuantileQuerySpec& spec) {
  out << PercentEncode(spec.stream) << ' ';
  WriteDouble(out, spec.epsilon);
  out << ' ';
  WritePredicate(out, spec.predicate);
}

Status ReadFields(std::istream& in, QuantileQuerySpec* spec) {
  SKIMJOIN_ASSIGN_OR_RETURN(spec->stream,
                            ReadEncodedName(in, "quantile query stream"));
  if (!ReadDouble(in, &spec->epsilon)) return Malformed("quantile query");
  SKIMJOIN_ASSIGN_OR_RETURN(spec->predicate, ReadPredicate(in));
  return OkStatus();
}

void WriteFields(std::ostream& out, const RangeSumQuerySpec& spec) {
  out << PercentEncode(spec.stream) << ' ' << spec.coefficient_budget << ' ';
  WritePredicate(out, spec.predicate);
}

Status ReadFields(std::istream& in, RangeSumQuerySpec* spec) {
  SKIMJOIN_ASSIGN_OR_RETURN(spec->stream,
                            ReadEncodedName(in, "range-sum query stream"));
  if (!(in >> spec->coefficient_budget)) return Malformed("range-sum query");
  SKIMJOIN_ASSIGN_OR_RETURN(spec->predicate, ReadPredicate(in));
  return OkStatus();
}

void WriteFields(std::ostream& out, const ChainJoinQuerySpec& spec) {
  out << spec.relations.size();
  for (const std::string& name : spec.relations) {
    out << ' ' << PercentEncode(name);
  }
  out << ' '
      << (spec.method == ChainJoinQuerySpec::Method::kAgmsGrid ? "agmsgrid"
                                                               : "hashsketch")
      << ' ' << spec.num_means << ' ' << spec.num_medians << ' '
      << spec.num_tables << ' ' << spec.num_buckets;
}

Status ReadFields(std::istream& in, ChainJoinQuerySpec* spec) {
  uint64_t relation_count = 0;
  if (!(in >> relation_count)) return Malformed("chain relation count");
  // Every relation name costs at least a separator and one byte, so the
  // bytes left bound the count before anything is reserved.
  const uint64_t bytes_left =
      static_cast<uint64_t>(std::max<std::streamsize>(in.rdbuf()->in_avail(),
                                                      0));
  if (relation_count < 2 || relation_count > kMaxChainRelations ||
      relation_count > bytes_left / 2) {
    return InvalidArgumentError("bad chain relation count in query spec");
  }
  spec->relations.reserve(relation_count);
  for (uint64_t r = 0; r < relation_count; ++r) {
    SKIMJOIN_ASSIGN_OR_RETURN(std::string name,
                              ReadEncodedName(in, "chain query relations"));
    spec->relations.push_back(std::move(name));
  }
  std::string method;
  if (!(in >> method >> spec->num_means >> spec->num_medians >>
        spec->num_tables >> spec->num_buckets)) {
    return Malformed("chain query");
  }
  if (method == "agmsgrid") {
    spec->method = ChainJoinQuerySpec::Method::kAgmsGrid;
  } else if (method == "hashsketch") {
    spec->method = ChainJoinQuerySpec::Method::kHashSketch;
  } else {
    return InvalidArgumentError("unknown chain method in query spec: " +
                                method);
  }
  return OkStatus();
}

// Default-constructs the alternative whose kind token is `kind`.
template <size_t I = 0>
bool EmplaceKind(const std::string& kind, QuerySpec* spec) {
  if constexpr (I < std::variant_size_v<QuerySpec>) {
    if (kind == kKindNames[I]) {
      spec->emplace<I>();
      return true;
    }
    return EmplaceKind<I + 1>(kind, spec);
  } else {
    return false;
  }
}

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

}  // namespace

const char* QueryKindName(const QuerySpec& spec) {
  return kKindNames[spec.index()];
}

void WriteQuerySpec(std::ostream& out, const QuerySpec& spec) {
  std::visit([&out](const auto& fields) { WriteFields(out, fields); }, spec);
}

StatusOr<QuerySpec> ReadQuerySpec(const std::string& kind, std::istream& in) {
  QuerySpec spec;
  if (!EmplaceKind(kind, &spec)) {
    return InvalidArgumentError("unknown query kind in query spec: " + kind);
  }
  SKIMJOIN_RETURN_IF_ERROR(std::visit(
      [&in](auto& fields) { return ReadFields(in, &fields); }, spec));
  return spec;
}

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

StatusOr<std::string> ReadEncodedName(std::istream& in, const char* what) {
  std::string encoded;
  if (!(in >> encoded)) {
    return InvalidArgumentError(std::string("record truncated in ") + what);
  }
  std::string out;
  out.reserve(encoded.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    if (encoded[i] != '%') {
      out.push_back(encoded[i]);
      continue;
    }
    if (i + 2 >= encoded.size()) {
      return InvalidArgumentError("truncated percent escape in name");
    }
    const int hi = HexValue(encoded[i + 1]);
    const int lo = HexValue(encoded[i + 2]);
    if (hi < 0 || lo < 0) {
      return InvalidArgumentError("bad percent escape in name");
    }
    out.push_back(static_cast<char>(hi * 16 + lo));
    i += 2;
  }
  return out;
}

}  // namespace query
}  // namespace skimjoin
