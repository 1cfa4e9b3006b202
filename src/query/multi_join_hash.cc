#include "query/multi_join_hash.h"

#include <istream>
#include <ostream>
#include <string>
#include <utility>

#include "sketch/serial_limits.h"
#include "sketch/sketch_seed.h"
#include "util/logging.h"
#include "util/stats.h"

namespace skimjoin {
namespace query {

MultiJoinHashEstimator::MultiJoinHashEstimator(
    const MultiJoinHashConfig& config, uint64_t seed)
    : config_(config), seed_(seed) {
  const uint64_t attributes = num_attributes();
  bucket_hashes_.resize(attributes);
  sign_hashes_.resize(attributes);
  for (uint64_t a = 0; a < attributes; ++a) {
    bucket_hashes_[a].reserve(config.num_tables);
    sign_hashes_[a].reserve(config.num_tables);
    for (uint64_t t = 0; t < config.num_tables; ++t) {
      Rng bucket_rng = sketch::FamilyRng(
          seed, sketch::FamilyTag::kHashSketchBucket,
          0xC4A1000ull + a * config.num_tables + t);
      bucket_hashes_[a].emplace_back(config.num_buckets, &bucket_rng);
      Rng sign_rng = sketch::FamilyRng(
          seed, sketch::FamilyTag::kHashSketchSign,
          0xC4A1000ull + a * config.num_tables + t);
      sign_hashes_[a].emplace_back(&sign_rng);
    }
  }
  counters_.resize(config.num_relations);
  for (uint64_t r = 0; r < config.num_relations; ++r) {
    const bool is_end = (r == 0 || r + 1 == config.num_relations);
    const uint64_t size = is_end ? config.num_buckets
                                 : config.num_buckets * config.num_buckets;
    counters_[r].assign(config.num_tables, std::vector<int64_t>(size, 0));
  }
}

StatusOr<MultiJoinHashEstimator> MultiJoinHashEstimator::Create(
    const MultiJoinHashConfig& config, uint64_t seed) {
  if (config.num_relations < 2) {
    return InvalidArgumentError("chain multi-join needs >= 2 relations");
  }
  if (config.num_tables < 1 || config.num_buckets < 1) {
    return InvalidArgumentError(
        "MultiJoinHashConfig requires num_tables >= 1 and num_buckets >= 1");
  }
  // An interior relation holds buckets² counters per table: the worst-case
  // product is held to the cap the record reader applies.
  SKIMJOIN_RETURN_IF_ERROR(sketch::CheckDeserializeDims(
      config.num_buckets, config.num_buckets, "multi-join-hash"));
  SKIMJOIN_RETURN_IF_ERROR(sketch::CheckDeserializeDims(
      config.num_tables, config.num_relations, "multi-join-hash"));
  SKIMJOIN_RETURN_IF_ERROR(sketch::CheckDeserializeDims(
      config.num_buckets * config.num_buckets,
      config.num_tables * config.num_relations, "multi-join-hash"));
  return MultiJoinHashEstimator(config, seed);
}

Status MultiJoinHashEstimator::UpdateEnd(uint64_t relation, uint64_t value,
                                         int64_t weight) {
  if (relation >= config_.num_relations) {
    return InvalidArgumentError("unknown relation index");
  }
  if (relation != 0 && relation + 1 != config_.num_relations) {
    return InvalidArgumentError(
        "UpdateEnd is only for the first/last relation of the chain");
  }
  const uint64_t attribute = (relation == 0) ? 0 : num_attributes() - 1;
  for (uint64_t t = 0; t < config_.num_tables; ++t) {
    const uint64_t bucket = bucket_hashes_[attribute][t](value);
    counters_[relation][t][bucket] +=
        sign_hashes_[attribute][t](value) * weight;
  }
  return OkStatus();
}

Status MultiJoinHashEstimator::UpdateMiddle(uint64_t relation,
                                            uint64_t left_value,
                                            uint64_t right_value,
                                            int64_t weight) {
  if (relation >= config_.num_relations) {
    return InvalidArgumentError("unknown relation index");
  }
  if (relation == 0 || relation + 1 == config_.num_relations) {
    return InvalidArgumentError(
        "UpdateMiddle is only for interior relations of the chain");
  }
  const uint64_t left_attribute = relation - 1;
  const uint64_t right_attribute = relation;
  for (uint64_t t = 0; t < config_.num_tables; ++t) {
    const uint64_t row = bucket_hashes_[left_attribute][t](left_value);
    const uint64_t col = bucket_hashes_[right_attribute][t](right_value);
    counters_[relation][t][row * config_.num_buckets + col] +=
        sign_hashes_[left_attribute][t](left_value) *
        sign_hashes_[right_attribute][t](right_value) * weight;
  }
  return OkStatus();
}

std::vector<double> MultiJoinHashEstimator::PerTableChainProducts() const {
  const uint64_t b = config_.num_buckets;
  std::vector<double> per_table;
  per_table.reserve(config_.num_tables);
  for (uint64_t t = 0; t < config_.num_tables; ++t) {
    // Chain product: start with relation 0's vector, multiply through each
    // middle relation's matrix, finish with the last relation's vector.
    std::vector<double> vec(b);
    for (uint64_t i = 0; i < b; ++i) {
      vec[i] = static_cast<double>(counters_[0][t][i]);
    }
    for (uint64_t r = 1; r + 1 < config_.num_relations; ++r) {
      std::vector<double> next(b, 0.0);
      const std::vector<int64_t>& matrix = counters_[r][t];
      for (uint64_t i = 0; i < b; ++i) {
        if (vec[i] == 0.0) continue;
        const int64_t* row = &matrix[i * b];
        for (uint64_t j = 0; j < b; ++j) {
          next[j] += vec[i] * static_cast<double>(row[j]);
        }
      }
      vec.swap(next);
    }
    double sum = 0.0;
    const std::vector<int64_t>& last = counters_[config_.num_relations - 1][t];
    for (uint64_t j = 0; j < b; ++j) {
      sum += vec[j] * static_cast<double>(last[j]);
    }
    per_table.push_back(sum);
  }
  return per_table;
}

double MultiJoinHashEstimator::Estimate() const {
  return Median(PerTableChainProducts());
}

EstimateReport MultiJoinHashEstimator::EstimateWithReport() const {
  EstimateReport report;
  report.method = "multi-join-hash";
  report.copy_estimates = PerTableChainProducts();
  report.estimate = Median(report.copy_estimates);
  FinishReportFromCopies(&report);
  return report;
}

uint64_t MultiJoinHashEstimator::TotalCounters() const {
  uint64_t total = 0;
  for (const auto& relation : counters_) {
    for (const auto& table : relation) total += table.size();
  }
  return total;
}

Status MultiJoinHashEstimator::SerializeTo(std::ostream& out) const {
  out << "skimjoin.multi_join_hash v1\n"
      << config_.num_relations << ' ' << config_.num_tables << ' '
      << config_.num_buckets << ' ' << seed_ << '\n';
  for (const std::vector<std::vector<int64_t>>& relation : counters_) {
    for (const std::vector<int64_t>& table : relation) {
      for (size_t i = 0; i < table.size(); ++i) {
        out << table[i] << (i + 1 == table.size() ? '\n' : ' ');
      }
    }
  }
  out << "end\n";
  if (!out) return IoError("multi-join-hash serialization failed");
  return OkStatus();
}

StatusOr<MultiJoinHashEstimator> MultiJoinHashEstimator::DeserializeFrom(
    std::istream& in) {
  std::string tag, version;
  if (!(in >> tag >> version) || tag != "skimjoin.multi_join_hash" ||
      version != "v1") {
    return InvalidArgumentError("not a skimjoin multi-join-hash v1 record");
  }
  MultiJoinHashConfig config;
  uint64_t seed = 0;
  if (!(in >> config.num_relations >> config.num_tables >>
        config.num_buckets >> seed)) {
    return InvalidArgumentError("malformed multi-join-hash header");
  }
  // Create validates the worst-case counter product before it allocates.
  StatusOr<MultiJoinHashEstimator> estimator =
      MultiJoinHashEstimator::Create(config, seed);
  SKIMJOIN_RETURN_IF_ERROR(estimator.status());
  for (std::vector<std::vector<int64_t>>& relation : estimator->counters_) {
    for (std::vector<int64_t>& table : relation) {
      for (int64_t& counter : table) {
        if (!(in >> counter)) {
          return InvalidArgumentError(
              "truncated multi-join-hash counter block");
        }
      }
    }
  }
  std::string sentinel;
  if (!(in >> sentinel) || sentinel != "end") {
    return InvalidArgumentError(
        "multi-join-hash record missing its end sentinel");
  }
  return estimator;
}

bool MultiJoinHashEstimator::CompatibleWith(
    const MultiJoinHashEstimator& other) const {
  return seed_ == other.seed_ &&
         config_.num_relations == other.config_.num_relations &&
         config_.num_tables == other.config_.num_tables &&
         config_.num_buckets == other.config_.num_buckets;
}

void MultiJoinHashEstimator::Merge(const MultiJoinHashEstimator& other) {
  SKIMJOIN_CHECK(CompatibleWith(other))
      << "merging incompatible multi-join-hash estimators";
  for (size_t r = 0; r < counters_.size(); ++r) {
    for (size_t t = 0; t < counters_[r].size(); ++t) {
      for (size_t i = 0; i < counters_[r][t].size(); ++i) {
        counters_[r][t][i] += other.counters_[r][t][i];
      }
    }
  }
}

uint64_t MultiJoinHashEstimator::MemoryBytes() const {
  uint64_t total = sizeof(*this);
  for (const std::vector<hashing::BucketHash>& family : bucket_hashes_) {
    total += sizeof(family);
    for (const hashing::BucketHash& hash : family) total += hash.MemoryBytes();
  }
  for (const std::vector<hashing::SignHash>& family : sign_hashes_) {
    total += sizeof(family);
    for (const hashing::SignHash& sign : family) total += sign.MemoryBytes();
  }
  for (const std::vector<std::vector<int64_t>>& relation : counters_) {
    total += sizeof(relation);
    for (const std::vector<int64_t>& table : relation) {
      total += sizeof(table) + table.capacity() * sizeof(int64_t);
    }
  }
  return total;
}

}  // namespace query
}  // namespace skimjoin
