#include "atf/search/surrogate_search.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "atf/session/result_store.hpp"

namespace atf::search {

feature_encoder::feature_encoder(std::vector<std::string> parameter_names)
    : names_(std::move(parameter_names)) {}

std::optional<feature_vector> feature_encoder::encode(
    const configuration& config) const {
  feature_vector out;
  out.reserve(width());
  for (const std::string& name : names_) {
    if (!config.contains(name)) {
      return std::nullopt;
    }
    const double v = to_double(config.value_of(name));
    out.push_back(v);
    out.push_back(std::asinh(v));
  }
  return out;
}

surrogate_search::surrogate_search(std::uint64_t seed)
    : surrogate_search(options{}, seed) {}

surrogate_search::surrogate_search(options opts, std::uint64_t seed)
    : opts_(opts), seed_(seed), trainer_(opts.trainer, seed) {}

void surrogate_search::initialize(const search_space& space) {
  search_technique::initialize(space);
  rng_ = common::xoshiro256(seed_);
  encoder_ = feature_encoder(space.parameter_names());
  trainer_.reset(seed_);
  measured_.clear();
  pending_.clear();
  materialized_ = 0;
  skipped_ = 0;
  scored_ = 0;
  tree_steps_ = 0;
  decoder_.emplace(space);
  tables_.clear();
  for (std::size_t g = 0; g < space.num_groups(); ++g) {
    const space_tree& tree = space.group(g);
    for (std::size_t lvl = 0; lvl < tree.depth(); ++lvl) {
      tables_.push_back({&tree, lvl, {}});
    }
  }
}

void surrogate_search::features_of(std::size_t p, std::uint32_t value_index,
                                   double* out) {
  feature_table& table = tables_[p];
  const auto encode = [&](double* slot) {
    const double v = to_double(table.tree->value_at(table.level, value_index));
    slot[0] = v;
    slot[1] = std::asinh(v);
  };
  const std::uint64_t range = table.tree->range_size(table.level);
  if (range > max_table_values) {
    encode(out);
    return;
  }
  if (table.features.empty()) {
    table.features.assign(2 * range,
                          std::numeric_limits<double>::quiet_NaN());
  }
  double* slot = table.features.data() + 2 * std::size_t{value_index};
  if (std::isnan(slot[0])) {
    encode(slot);  // a NaN value is simply encoded again on every use
  }
  out[0] = slot[0];
  out[1] = slot[1];
}

void surrogate_search::warm_start(const session::result_store& store) {
  for (const session::tuning_record& record : store.latest_records()) {
    const configuration config = record.to_configuration();
    const std::optional<feature_vector> features = encoder_.encode(config);
    if (!features.has_value()) {
      continue;  // a record from a differently shaped space
    }
    const bool invalid =
        !record.valid || !std::isfinite(record.scalar) ||
        record.scalar >= opts_.invalid_cost_threshold;
    trainer_.add(*features, record.scalar, invalid);
    measured_.insert(record.config_hash);
  }
}

configuration surrogate_search::get_next_config() {
  const std::vector<configuration> batch = propose_batch(1);
  return batch.front();
}

void surrogate_search::report_cost(double cost) {
  const std::vector<configuration> batch = std::move(pending_);
  pending_.clear();
  report_batch(batch, {cost});
}

configuration surrogate_search::random_fresh(
    std::unordered_set<std::uint64_t>& batch_hashes) {
  // Bounded rejection sampling against everything already measured (or
  // already in this batch); small or exhausted spaces fall back to a plain
  // random draw so the technique never stalls.
  for (int attempt = 0; attempt < 16; ++attempt) {
    configuration config = space().config_at(space().random_index(rng_));
    ++materialized_;
    const std::uint64_t hash = config.hash();
    if (measured_.count(hash) == 0 && batch_hashes.insert(hash).second) {
      return config;
    }
    ++skipped_;
  }
  configuration config = space().config_at(space().random_index(rng_));
  ++materialized_;
  batch_hashes.insert(config.hash());
  return config;
}

std::vector<configuration> surrogate_search::propose_batch(
    std::size_t max_configs) {
  const std::size_t slots = std::max<std::size_t>(1, max_configs);
  std::vector<configuration> batch;
  batch.reserve(slots);
  std::unordered_set<std::uint64_t> batch_hashes;

  if (!trainer_.ready()) {
    // Warm-up: uniform random exploration until the model has enough
    // valid samples.
    for (std::size_t s = 0; s < slots; ++s) {
      batch.push_back(random_fresh(batch_hashes));
    }
    pending_ = batch;
    return batch;
  }

  trainer_.fit_pending();

  // Candidate pool: random space indices, all drawn before any is scored
  // (scoring draws nothing, so the stream is unchanged), decoded to value
  // indices, encoded from the feature tables into one row-major block and
  // scored in one batch pass. Ties break toward the earlier draw, which is
  // itself seed-determined.
  struct candidate {
    double score = 0.0;
    std::size_t draw = 0;
    std::uint64_t index = 0;
  };
  const std::size_t n = opts_.candidate_pool;
  std::vector<candidate> pool(n);
  for (std::size_t draw = 0; draw < n; ++draw) {
    pool[draw].draw = draw;
    pool[draw].index = space().random_index(rng_);
  }
  const std::size_t params = tables_.size();
  const std::size_t width = 2 * params;
  value_indices_.resize(params);
  rows_.resize(n * width);
  for (std::size_t draw = 0; draw < n; ++draw) {
    decoder_->value_indices(pool[draw].index, value_indices_.data());
    double* row = rows_.data() + draw * width;
    for (std::size_t p = 0; p < params; ++p) {
      features_of(p, value_indices_[p], row + 2 * p);
    }
  }
  scores_.resize(n);
  trainer_.score_batch(rows_.data(), n, scores_.data());
  for (std::size_t draw = 0; draw < n; ++draw) {
    pool[draw].score = scores_[draw];
  }
  scored_ += n;
  tree_steps_ += n * trainer_.steps_per_candidate();
  std::stable_sort(pool.begin(), pool.end(),
                   [](const candidate& a, const candidate& b) {
                     if (a.score != b.score) {
                       return a.score < b.score;
                     }
                     return a.draw < b.draw;
                   });

  // Walk the ranking from the best candidate, materializing one at a time
  // and skipping what was measured or already walked past. A duplicate draw
  // has the same score and a later draw than its first occurrence, so this
  // takes exactly the candidates of ranking only the unmeasured first
  // occurrences.
  std::unordered_set<std::uint64_t> walked;
  std::size_t next_candidate = 0;
  for (std::size_t s = 0; s < slots; ++s) {
    const bool explore = rng_.uniform() < opts_.exploration;
    bool taken = false;
    while (!explore && !taken && next_candidate < pool.size()) {
      configuration config =
          space().config_at(pool[next_candidate++].index);
      ++materialized_;
      const std::uint64_t hash = config.hash();
      if (measured_.count(hash) != 0 || !walked.insert(hash).second) {
        ++skipped_;
        continue;
      }
      batch_hashes.insert(hash);
      batch.push_back(std::move(config));
      taken = true;
    }
    if (!taken) {
      batch.push_back(random_fresh(batch_hashes));
    }
  }
  pending_ = batch;
  return batch;
}

void surrogate_search::report_batch(const std::vector<configuration>& configs,
                                    const std::vector<double>& costs) {
  const std::size_t reported = std::min(configs.size(), costs.size());
  for (std::size_t i = 0; i < reported; ++i) {
    const std::optional<feature_vector> features =
        encoder_.encode(configs[i]);
    if (!features.has_value()) {
      continue;
    }
    const double cost = costs[i];
    const bool invalid =
        !std::isfinite(cost) || cost >= opts_.invalid_cost_threshold;
    trainer_.add(*features, cost, invalid);
    measured_.insert(configs[i].hash());
  }
  pending_.clear();
}

}  // namespace atf::search
