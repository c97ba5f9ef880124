#include "atf/search/surrogate_search.hpp"

#include <algorithm>
#include <cmath>

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

void feature_encoder::encode(const std::vector<tp_value>& values,
                             feature_vector& out) const {
  out.clear();
  for (const tp_value& value : values) {
    const double v = to_double(value);
    out.push_back(v);
    out.push_back(std::asinh(v));
  }
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

  // Candidate pool: random space indices scored from their value tuples.
  // Ties break toward the earlier draw, which is itself seed-determined.
  struct candidate {
    double score = 0.0;
    std::size_t draw = 0;
    std::uint64_t index = 0;
  };
  std::vector<candidate> pool(opts_.candidate_pool);
  std::vector<tp_value> values;
  feature_vector features;
  for (std::size_t draw = 0; draw < pool.size(); ++draw) {
    const std::uint64_t index = space().random_index(rng_);
    space().values_at(index, values);
    encoder_.encode(values, features);
    pool[draw] = {trainer_.score(features), draw, index};
  }
  scored_ += pool.size();
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
