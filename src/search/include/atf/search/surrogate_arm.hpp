// The surrogate as an ensemble bandit arm (DESIGN.md §10).
//
// Same model, smaller budget: the arm scores a modest random candidate pool
// per proposal with a lighter forest (the ensemble calls its members every
// step, so per-proposal cost must stay small), encodes domain points
// directly — two features per axis, the raw index and its asinh — and
// exposes an explicit bounded max_batch(): the candidates of one batch are
// ranked by one model snapshot, so they are mutually independent, but
// letting a single arm flood an arbitrarily wide batch would starve the
// bandit's exploration of the other members.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_set>
#include <vector>

#include "atf/common/rng.hpp"
#include "atf/search/domain_technique.hpp"
#include "atf/search/surrogate_model.hpp"

namespace atf::search {

class surrogate_arm final : public domain_technique {
public:
  struct options {
    std::size_t candidate_pool = 64;  ///< random candidates ranked per slot
    double exploration = 0.15;        ///< ε-fraction of pure-random slots
    std::size_t batch_cap = 8;        ///< explicit max_batch()
    surrogate_trainer::options trainer;

    options() {
      // Arm-sized defaults: cheaper forest, earlier readiness, shorter
      // window than the standalone technique.
      trainer.min_train = 12;
      trainer.refit_interval = 12;
      trainer.max_train = 512;
      trainer.model.trees = 12;
      trainer.model.max_depth = 5;
    }
  };

  surrogate_arm() : surrogate_arm(options{}) {}
  explicit surrogate_arm(options opts) : opts_(opts) {}

  [[nodiscard]] std::string name() const override { return "surrogate"; }

  void initialize(const numeric_domain& domain, std::uint64_t seed) override;

  [[nodiscard]] point next_point() override;
  void report(double cost) override;

  [[nodiscard]] std::size_t max_batch() const override {
    return opts_.batch_cap;
  }
  [[nodiscard]] std::vector<point> propose_points(
      std::size_t max_points) override;
  void report_points(const std::vector<double>& costs) override;

  [[nodiscard]] bool model_ready() const noexcept { return trainer_.ready(); }

private:
  /// Two features per axis into out[0, 2 * p.size()).
  static void encode(const point& p, double* out);
  [[nodiscard]] point propose_one(
      std::unordered_set<std::uint64_t>& batch_keys);
  [[nodiscard]] static std::uint64_t key_of(const point& p) noexcept;

  options opts_;
  const numeric_domain* domain_ = nullptr;
  common::xoshiro256 rng_{0};
  surrogate_trainer trainer_;
  /// Keys of every point already reported — exploitation prefers
  /// candidates outside this set so the arm keeps probing new points even
  /// when the model's score surface is flat.
  std::unordered_set<std::uint64_t> measured_;
  std::vector<point> pending_;  ///< points proposed, awaiting their costs
  // Pool scratch, reused across proposals.
  std::vector<point> pool_;
  std::vector<double> rows_;  ///< row-major pool features
  std::vector<double> scores_;
};

}  // namespace atf::search
