// The one text codec for standing-query specs. A checkpoint manifest line
// and a fleet registration message carry the same record, so a query
// written down once can be re-created on restart or on another site:
//
//   <kind> <kind-specific fields...>
//
// Fields are whitespace-separated tokens. Names are percent-encoded so
// they survive the tokenizer, and doubles are written with max_digits10
// significant digits so they read back bit-exactly. The reader treats its
// input as untrusted: every token is validated and every declared count is
// capped by the bytes left before anything is reserved.

#ifndef SKIMJOIN_QUERY_SPEC_CODEC_H_
#define SKIMJOIN_QUERY_SPEC_CODEC_H_

#include <istream>
#include <ostream>
#include <string>
#include <string_view>

#include "query/query.h"
#include "util/status.h"

namespace skimjoin {
namespace query {

/// The spec's kind token: "join", "frequency", "distinct", "topk",
/// "quantile", "rangesum" or "chain".
const char* QueryKindName(const QuerySpec& spec);

/// Writes `spec`'s kind-specific fields (not its kind token), separated
/// by single spaces, with no leading or trailing whitespace.
void WriteQuerySpec(std::ostream& out, const QuerySpec& spec);

/// Reads the fields WriteQuerySpec wrote for a spec of kind `kind`.
/// INVALID_ARGUMENT for an unknown kind or any malformed field.
StatusOr<QuerySpec> ReadQuerySpec(const std::string& kind, std::istream& in);

/// Escapes every byte outside printable ASCII, and '%' itself, as %XX, so
/// any name survives a whitespace tokenizer.
std::string PercentEncode(std::string_view raw);

/// Reads one PercentEncode'd name token. INVALID_ARGUMENT when `in` ends
/// first (the message names `what`) or on a bad escape.
StatusOr<std::string> ReadEncodedName(std::istream& in, const char* what);

}  // namespace query
}  // namespace skimjoin

#endif  // SKIMJOIN_QUERY_SPEC_CODEC_H_
