// Surrogate-model-guided search over the constrained space (DESIGN.md §10).
//
// The batched propose/report protocol is exactly the interface an
// acquisition ranker wants: propose wide, filter by a cheap model, measure
// few. Each batch is filled from a pool of random candidate configurations
// ranked by the surrogate's acquisition score (LCB of the predicted cost
// plus an invalidity penalty), with an ε-fraction of slots kept for pure
// random exploration; already-measured configurations are skipped, so the
// measurement budget is spent on new points. The pool is scored in one
// batch pass (surrogate_trainer::score_batch) over features read from
// per-parameter tables by value index, each candidate decoded by cursors
// the technique holds; only the candidates the batch walks past are
// materialized as configurations and hashed.
//
// Under tuner::session(path) the technique warm-starts from the replayed
// result store: every surviving journal record becomes a training sample
// (invalid records feed the classifier head), so a resumed or merged
// session shapes the acquisition landscape before the first proposal.
#pragma once

#include <cstdint>
#include <limits>
#include <optional>
#include <string>
#include <unordered_set>
#include <vector>

#include "atf/common/rng.hpp"
#include "atf/search/surrogate_model.hpp"
#include "atf/search_space.hpp"
#include "atf/search_technique.hpp"

namespace atf::search {

/// Maps a configuration onto a fixed-width feature vector: two features
/// per tuning parameter, the raw scalarized value and its asinh — the
/// compressed copy makes power-of-two parameter axes (the common case)
/// split evenly in tree depth. Parameter order is the space's declaration
/// order, so the same configuration always encodes identically.
class feature_encoder {
public:
  feature_encoder() = default;
  explicit feature_encoder(std::vector<std::string> parameter_names);

  [[nodiscard]] std::size_t width() const noexcept {
    return 2 * names_.size();
  }
  [[nodiscard]] const std::vector<std::string>& names() const noexcept {
    return names_;
  }

  /// Encodes by parameter *name*; std::nullopt when the configuration is
  /// missing one of the encoder's parameters (e.g. a journal record from a
  /// differently shaped space).
  [[nodiscard]] std::optional<feature_vector> encode(
      const configuration& config) const;

private:
  std::vector<std::string> names_;
};

class surrogate_search final : public atf::search_technique {
public:
  struct options {
    /// Random candidate configurations ranked per batch.
    std::size_t candidate_pool = 256;
    /// ε-fraction of batch slots proposed uniformly at random (per-slot
    /// Bernoulli draw, so the fraction holds at every batch width).
    double exploration = 0.15;
    /// Finite penalty detection: reported costs at or above this value are
    /// treated as invalid, like non-finite costs (set it to the fault
    /// policy's penalty when using a finite one).
    double invalid_cost_threshold =
        std::numeric_limits<double>::infinity();
    surrogate_trainer::options trainer;
  };

  explicit surrogate_search(std::uint64_t seed = 0x5eed);
  surrogate_search(options opts, std::uint64_t seed);

  [[nodiscard]] const char* name() const override {
    return "surrogate_search";
  }

  void initialize(const search_space& space) override;

  /// Feeds every replayed store record into the model (valid records as
  /// regression samples, invalid ones into the classifier head) and marks
  /// their configurations as already measured. Records whose parameters do
  /// not cover this space's are skipped.
  void warm_start(const session::result_store& store) override;

  /// Sequential protocol, routed through the batch protocol at width 1 —
  /// one code path, so batched-at-1 is bit-identical by construction.
  [[nodiscard]] configuration get_next_config() override;
  void report_cost(double cost) override;

  [[nodiscard]] std::vector<configuration> propose_batch(
      std::size_t max_configs) override;
  void report_batch(const std::vector<configuration>& configs,
                    const std::vector<double>& costs) override;

  /// Diagnostics (tests, benches).
  [[nodiscard]] bool model_ready() const noexcept { return trainer_.ready(); }
  [[nodiscard]] std::size_t training_samples() const noexcept {
    return trainer_.samples();
  }
  [[nodiscard]] std::size_t invalid_training_samples() const noexcept {
    return trainer_.invalid_samples();
  }
  [[nodiscard]] std::uint64_t refits() const noexcept {
    return trainer_.refits();
  }
  [[nodiscard]] const surrogate_trainer& trainer() const noexcept {
    return trainer_;
  }
  /// Configurations materialized (config_at) by proposals since initialize.
  [[nodiscard]] std::uint64_t materialized() const noexcept {
    return materialized_;
  }
  /// Materialized candidates skipped as already measured or already seen.
  [[nodiscard]] std::uint64_t skipped() const noexcept { return skipped_; }
  /// Candidates scored by the model since initialize.
  [[nodiscard]] std::uint64_t scored() const noexcept { return scored_; }
  /// Forest steps scoring took since initialize (candidates times the
  /// steps_per_candidate of the model that scored them).
  [[nodiscard]] std::uint64_t tree_steps() const noexcept {
    return tree_steps_;
  }
  /// Sibling steps decoding the candidate pools took since initialize.
  [[nodiscard]] std::uint64_t decode_sibling_steps() const noexcept {
    return decoder_ ? decoder_->sibling_steps() : 0;
  }

private:
  /// One parameter's features (v, asinh v) by range position, filled on
  /// first use: entry 2k, 2k+1 for value index k, NaN until computed.
  /// Ranges above max_table_values are encoded per use instead.
  struct feature_table {
    const space_tree* tree = nullptr;
    std::size_t level = 0;
    std::vector<double> features;  ///< allocated on first use
  };
  static constexpr std::uint64_t max_table_values = std::uint64_t{1} << 16;

  [[nodiscard]] configuration random_fresh(
      std::unordered_set<std::uint64_t>& batch_hashes);
  /// Writes parameter p's two features for range position `value_index`.
  void features_of(std::size_t p, std::uint32_t value_index, double* out);

  options opts_;
  std::uint64_t seed_;
  common::xoshiro256 rng_{0};
  feature_encoder encoder_;
  surrogate_trainer trainer_;
  /// Content hashes of every configuration already measured (reported or
  /// warm-started) — candidates hitting this set are skipped.
  std::unordered_set<std::uint64_t> measured_;
  std::vector<configuration> pending_;  ///< last proposed batch (sequential shim)
  std::uint64_t materialized_ = 0;
  std::uint64_t skipped_ = 0;
  std::uint64_t scored_ = 0;
  std::uint64_t tree_steps_ = 0;
  /// Decodes pool candidates; one cursor per group for the technique's life.
  std::optional<search_space::index_decoder> decoder_;
  std::vector<feature_table> tables_;  ///< per parameter, declaration order
  // Pool scratch, reused across proposals.
  std::vector<std::uint32_t> value_indices_;
  std::vector<double> rows_;  ///< row-major pool features
  std::vector<double> scores_;
};

}  // namespace atf::search
