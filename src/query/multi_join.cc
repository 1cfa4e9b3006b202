#include "query/multi_join.h"

#include <algorithm>
#include <istream>
#include <ostream>
#include <unordered_map>
#include <utility>

#include "sketch/serial_limits.h"
#include "sketch/sketch_seed.h"
#include "util/logging.h"
#include "util/stats.h"

namespace skimjoin {
namespace query {

MultiJoinEstimator::MultiJoinEstimator(const MultiJoinConfig& config,
                                       uint64_t seed)
    : config_(config), seed_(seed) {
  uint64_t num_attributes = 0;
  for (const auto& attrs : config.relation_attributes) {
    for (uint64_t a : attrs) num_attributes = std::max(num_attributes, a + 1);
  }
  const uint64_t cells = config.num_means * config.num_medians;
  signs_.resize(num_attributes);
  for (uint64_t attribute = 0; attribute < num_attributes; ++attribute) {
    signs_[attribute].reserve(cells);
    for (uint64_t cell = 0; cell < cells; ++cell) {
      Rng rng = sketch::FamilyRng(seed, sketch::FamilyTag::kMultiJoinSign,
                                  attribute * cells + cell);
      signs_[attribute].emplace_back(&rng);
    }
  }
  counters_.assign(config.relation_attributes.size(),
                   std::vector<int64_t>(cells, 0));
}

StatusOr<MultiJoinEstimator> MultiJoinEstimator::Create(
    const MultiJoinConfig& config, uint64_t seed) {
  if (config.num_means < 1 || config.num_medians < 1) {
    return InvalidArgumentError("multi-join grid must be at least 1x1");
  }
  if (config.relation_attributes.size() < 2) {
    return InvalidArgumentError("multi-join needs at least two relations");
  }
  std::unordered_map<uint64_t, int> attribute_uses;
  for (const auto& attrs : config.relation_attributes) {
    if (attrs.empty()) {
      return InvalidArgumentError(
          "every relation must carry at least one join attribute");
    }
    for (uint64_t a : attrs) ++attribute_uses[a];
  }
  for (const auto& [attribute, uses] : attribute_uses) {
    if (uses != 2) {
      return InvalidArgumentError(
          "join attribute " + std::to_string(attribute) +
          " must appear in exactly two relations (acyclic join), found " +
          std::to_string(uses));
    }
    // The constructor keeps one sign family per id up to the largest, so
    // ids must be dense: a gap would size that allocation, not the query.
    if (attribute >= attribute_uses.size()) {
      return InvalidArgumentError(
          "join attribute ids must be dense from 0; found " +
          std::to_string(attribute) + " among " +
          std::to_string(attribute_uses.size()) + " attributes");
    }
  }
  // One sign family per attribute and cell beside the per-relation counter
  // grids, held to the cap the record reader applies.
  SKIMJOIN_RETURN_IF_ERROR(sketch::CheckDeserializeDims(
      config.num_means, config.num_medians, "multi-join"));
  SKIMJOIN_RETURN_IF_ERROR(sketch::CheckDeserializeFootprint(
      config.num_means * config.num_medians, config.relation_attributes.size(),
      attribute_uses.size(), "multi-join"));
  return MultiJoinEstimator(config, seed);
}

Status MultiJoinEstimator::Update(
    uint64_t relation, const std::vector<uint64_t>& attribute_values,
    int64_t weight) {
  if (relation >= config_.relation_attributes.size()) {
    return InvalidArgumentError("unknown relation index");
  }
  const std::vector<uint64_t>& attrs = config_.relation_attributes[relation];
  if (attribute_values.size() != attrs.size()) {
    return InvalidArgumentError(
        "arity mismatch: relation expects " + std::to_string(attrs.size()) +
        " join-attribute values, got " +
        std::to_string(attribute_values.size()));
  }
  std::vector<int64_t>& counters = counters_[relation];
  const uint64_t cells = config_.num_means * config_.num_medians;
  for (uint64_t cell = 0; cell < cells; ++cell) {
    int64_t sign = 1;
    for (size_t i = 0; i < attrs.size(); ++i) {
      sign *= signs_[attrs[i]][cell](attribute_values[i]);
    }
    counters[cell] += sign * weight;
  }
  return OkStatus();
}

std::vector<double> MultiJoinEstimator::PerMedianAverages() const {
  std::vector<double> averages;
  averages.reserve(config_.num_medians);
  for (uint64_t j = 0; j < config_.num_medians; ++j) {
    double sum = 0.0;
    for (uint64_t i = 0; i < config_.num_means; ++i) {
      const uint64_t cell = CellIndex(i, j);
      double product = 1.0;
      for (const auto& counters : counters_) {
        product *= static_cast<double>(counters[cell]);
      }
      sum += product;
    }
    averages.push_back(sum / static_cast<double>(config_.num_means));
  }
  return averages;
}

double MultiJoinEstimator::Estimate() const {
  return Median(PerMedianAverages());
}

EstimateReport MultiJoinEstimator::EstimateWithReport() const {
  EstimateReport report;
  report.method = "multi-join-grid";
  report.copy_estimates = PerMedianAverages();
  report.estimate = Median(report.copy_estimates);
  FinishReportFromCopies(&report);
  return report;
}

Status MultiJoinEstimator::SerializeTo(std::ostream& out) const {
  out << "skimjoin.multi_join v1\n"
      << config_.num_means << ' ' << config_.num_medians << ' ' << seed_
      << ' ' << config_.relation_attributes.size() << '\n';
  for (const std::vector<uint64_t>& attrs : config_.relation_attributes) {
    out << attrs.size();
    for (const uint64_t a : attrs) out << ' ' << a;
    out << '\n';
  }
  for (const std::vector<int64_t>& grid : counters_) {
    for (size_t i = 0; i < grid.size(); ++i) {
      out << grid[i] << (i + 1 == grid.size() ? '\n' : ' ');
    }
  }
  out << "end\n";
  if (!out) return IoError("multi-join serialization failed");
  return OkStatus();
}

StatusOr<MultiJoinEstimator> MultiJoinEstimator::DeserializeFrom(
    std::istream& in) {
  std::string tag, version;
  if (!(in >> tag >> version) || tag != "skimjoin.multi_join" ||
      version != "v1") {
    return InvalidArgumentError("not a skimjoin multi-join v1 record");
  }
  MultiJoinConfig config;
  uint64_t seed = 0, num_relations = 0;
  if (!(in >> config.num_means >> config.num_medians >> seed >>
        num_relations)) {
    return InvalidArgumentError("malformed multi-join header");
  }
  SKIMJOIN_RETURN_IF_ERROR(sketch::CheckDeserializeDims(
      config.num_means, config.num_medians, "multi-join"));
  SKIMJOIN_RETURN_IF_ERROR(sketch::CheckDeserializeDims(
      config.num_means * config.num_medians, num_relations, "multi-join"));
  // Relations are appended as their lists are read, so a header that
  // claims more relations than the record holds fails on the first missing
  // list, not after sizing one empty list per claimed relation.
  for (uint64_t relation = 0; relation < num_relations; ++relation) {
    uint64_t arity = 0;
    // The declared arity bounds the grid just like a counter dimension;
    // a relation never carries more than a handful of attributes.
    if (!(in >> arity) || arity < 1 || arity > 64) {
      return InvalidArgumentError("malformed multi-join attribute list");
    }
    std::vector<uint64_t>& attrs =
        config.relation_attributes.emplace_back(arity);
    for (uint64_t& a : attrs) {
      if (!(in >> a)) {
        return InvalidArgumentError("malformed multi-join attribute list");
      }
    }
  }
  // Create counts the sign families and counter grids against the cap
  // before it allocates either, and refuses ids that are not dense.
  StatusOr<MultiJoinEstimator> estimator =
      MultiJoinEstimator::Create(config, seed);
  SKIMJOIN_RETURN_IF_ERROR(estimator.status());
  for (std::vector<int64_t>& grid : estimator->counters_) {
    for (int64_t& counter : grid) {
      if (!(in >> counter)) {
        return InvalidArgumentError("truncated multi-join counter block");
      }
    }
  }
  std::string sentinel;
  if (!(in >> sentinel) || sentinel != "end") {
    return InvalidArgumentError("multi-join record missing its end sentinel");
  }
  return estimator;
}

bool MultiJoinEstimator::CompatibleWith(const MultiJoinEstimator& other) const {
  return seed_ == other.seed_ && config_.num_means == other.config_.num_means &&
         config_.num_medians == other.config_.num_medians &&
         config_.relation_attributes == other.config_.relation_attributes;
}

void MultiJoinEstimator::Merge(const MultiJoinEstimator& other) {
  SKIMJOIN_CHECK(CompatibleWith(other)) << "merging incompatible multi-joins";
  for (size_t r = 0; r < counters_.size(); ++r) {
    for (size_t cell = 0; cell < counters_[r].size(); ++cell) {
      counters_[r][cell] += other.counters_[r][cell];
    }
  }
}

uint64_t MultiJoinEstimator::MemoryBytes() const {
  uint64_t total = sizeof(*this);
  for (const std::vector<uint64_t>& attrs : config_.relation_attributes) {
    total += sizeof(attrs) + attrs.capacity() * sizeof(uint64_t);
  }
  for (const std::vector<hashing::SignHash>& family : signs_) {
    total += sizeof(family);
    for (const hashing::SignHash& sign : family) total += sign.MemoryBytes();
  }
  for (const std::vector<int64_t>& grid : counters_) {
    total += sizeof(grid) + grid.capacity() * sizeof(int64_t);
  }
  return total;
}

}  // namespace query
}  // namespace skimjoin
