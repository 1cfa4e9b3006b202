// Epoch-invalidated answer cache for standing queries (DESIGN.md §11).
//
// Sketch linearity buys exact invalidation for free: an answer derived
// from a set of synopses can only change when one of them changes. A cache
// entry therefore stores the answer together with an epoch vector taken at
// computation time — for a join, the absorbed-element counters of its two
// streams (`ingest.<stream>.elements_absorbed`; join synopses absorb
// inline); for a point read, its sketch's own update epoch, which also
// moves when concurrent ingestion propagates or flushes — and a lookup
// succeeds only when the current epoch vector matches entry-for-entry. No
// TTLs, no heuristics: a hit is provably the same answer a recomputation
// would produce (the answer paths are deterministic), and any
// answer-changing update bumps at least one epoch.
//
// A lookup that finds an entry whose epochs no longer match counts as an
// invalidation (the entry is replaced on the following Store); one that
// finds nothing is a plain miss. The distinction feeds the
// `query.<id>.cache_{hits,misses,invalidations}` metrics.
//
// The cache lives inside the engine's single-writer domain (the one thread
// that drives ingest and reads), so it needs no synchronization.

#ifndef SKIMJOIN_QUERY_QUERY_CACHE_H_
#define SKIMJOIN_QUERY_QUERY_CACHE_H_

#include <array>
#include <cstdint>
#include <optional>
#include <unordered_map>

namespace skimjoin {
namespace query {

/// Answer cache keyed on (query id, argument) and guarded by per-stream
/// update epochs. Join answers are doubles, point answers int64 — stored in
/// separate maps so each returns exactly the type (and bits) the original
/// computation produced.
class QueryCache {
 public:
  /// The participating epoch values, in a fixed per-query order.
  /// Fixed-size (two slots cover every cached query shape: joins have two
  /// participants, point queries one with the spare slot zero) so building
  /// and comparing an epoch vector never allocates — the hit path is meant
  /// to be a map lookup and nothing else.
  using Epochs = std::array<uint64_t, 2>;

  /// Outcome of one lookup, for the caller's metrics.
  enum class Outcome { kHit, kMiss, kInvalidated };

  /// Join / self-join answers, keyed by query id alone.
  std::optional<double> LookupJoin(uint64_t query_id, const Epochs& epochs,
                                   Outcome* outcome);
  void StoreJoin(uint64_t query_id, const Epochs& epochs, double answer);

  /// Point-frequency answers, keyed by (query id, value).
  std::optional<int64_t> LookupPoint(uint64_t query_id, uint64_t value,
                                     const Epochs& epochs, Outcome* outcome);
  void StorePoint(uint64_t query_id, uint64_t value, const Epochs& epochs,
                  int64_t answer);

  /// Drops every entry. Called on Engine::Clear and on checkpoint restore
  /// (restored epochs are re-seeded; entries from the previous life must
  /// not be consulted against them).
  void DropAll();

  /// Drops entries belonging to one query (query removal/replacement).
  void DropQuery(uint64_t query_id);

  /// Entries currently held (both kinds).
  uint64_t EntryCount() const {
    return joins_.size() + points_.size();
  }

 private:
  template <typename Value>
  struct Entry {
    Epochs epochs;
    Value answer;
  };

  struct PointKey {
    uint64_t query_id;
    uint64_t value;
    bool operator==(const PointKey&) const = default;
  };
  struct PointKeyHash {
    size_t operator()(const PointKey& key) const {
      // Fibonacci mix; the two words are engine-controlled, not adversarial.
      uint64_t h = key.query_id * 0x9e3779b97f4a7c15ull;
      h ^= key.value + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
      return static_cast<size_t>(h);
    }
  };

  std::unordered_map<uint64_t, Entry<double>> joins_;
  std::unordered_map<PointKey, Entry<int64_t>, PointKeyHash> points_;
};

}  // namespace query
}  // namespace skimjoin

#endif  // SKIMJOIN_QUERY_QUERY_CACHE_H_
