// The surrogate regressor behind surrogate-guided search: a deterministic
// random-forest model fit on measured (feature-vector → cost) pairs, plus
// the bookkeeping that turns a stream of reported costs into training sets
// (DESIGN.md §10).
//
// A forest — rather than gradient boosting — because the acquisition score
// needs an uncertainty estimate: trees grown on independent bootstrap
// resamples disagree where the landscape is unsampled, so the cross-tree
// standard deviation is a usable confidence proxy (Falch & Elster's
// ML-based auto-tuning uses the same replace-measurements-with-a-regressor
// idea; the forest variant keeps everything pure C++ and bit-deterministic).
//
// Invalid-cost contract. Failed evaluations arrive as the fault policy's
// penalty scalar — +infinity by default. Feeding those into the regression
// would poison every split around a failure region, so the trainer routes
// them into a *separate classifier head*: a second forest fit on 0/1
// invalid labels whose prediction (an invalidity probability) is added to
// the acquisition score as a penalty. Valid costs are compressed through
// asinh before fitting — monotone, defined for every finite double, and it
// tames the orders-of-magnitude spread of kernel runtimes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <vector>

namespace atf::search {

/// A fixed-width feature vector (see feature_encoder in
/// surrogate_search.hpp and surrogate_arm's per-axis encoding).
using feature_vector = std::vector<double>;

/// A forest prediction: the mean over per-tree outputs and their
/// population standard deviation (the uncertainty proxy).
struct surrogate_prediction {
  double mean = 0.0;
  double stddev = 0.0;
};

namespace detail {
struct forest_fit;
void fit_forests(const std::vector<forest_fit>& fits, std::size_t workers);
}  // namespace detail

/// A deterministic random-forest regressor. The fitted forest is a pure
/// function of (features, targets, seed, options): fitting twice yields
/// bit-identical predictions, however many threads grew the trees.
///
/// Trees. Tree t draws its bootstrap sample and every feature shuffle from
/// its own xoshiro256 stream, seeded by detail::tree_seed(seed, t), so tree
/// t is the same in a forest of t + 1 trees and in one of 24. The trees are
/// grown in parallel (detail::fit_forests) and concatenated in tree order.
///
/// Splits. A node tries a seed-shuffled subset of its features. For each,
/// it builds a histogram over the feature's dense ranks (ranked once per
/// fit) holding the sum and the count of its samples' targets, and scans
/// it in rank order: every boundary between two ranks present is a
/// candidate threshold (their values' midpoint) when both sides keep
/// min_leaf samples. A candidate's SSE is Σy² − (L²·n_R + R²·n_L) /
/// (n_L·n_R), clamped at 0, over the node's squared targets and the left
/// and right target sums. A split replaces the best so far only when its
/// SSE is strictly lower, so ties go to the first feature tried and,
/// within a feature, to the lower threshold. A node's samples keep the
/// order of the bootstrap draw through stable partitions; each bin adds
/// its targets in that order, which no other feature's search touches.
///
/// Prediction. After a fit the forest is one flat structure-of-arrays
/// (flat_forest). predict_sums scores a block of candidates tree by tree:
/// each tree takes exactly its depth in steps for every candidate (a leaf's
/// children are the leaf itself, so a walk that arrives early stays put),
/// eight candidates at a time so their loads overlap. Every candidate's
/// per-tree outputs are added in tree order, so predict(x) — the block of
/// one — and every candidate of a larger block yield the same bits.
class surrogate_model {
public:
  struct options {
    std::size_t trees = 24;
    std::size_t max_depth = 6;
    std::size_t min_leaf = 2;        ///< minimum samples per leaf
    double feature_fraction = 0.7;   ///< features tried per split
  };

  /// The fitted forest. Node k of the flat arrays belongs to one tree; a
  /// tree's nodes are contiguous, root first, in preorder.
  struct flat_forest {
    std::size_t width = 0;               ///< features per candidate row
    std::vector<std::int32_t> feature;   ///< split feature; 0 at leaves
    std::vector<double> threshold;       ///< go left iff x[feature] <= it
    /// {left, right}; a leaf's pair points at the leaf itself.
    std::vector<std::array<std::int32_t, 2>> child;
    std::vector<double> value;           ///< leaf prediction (sample mean)
    std::vector<std::int32_t> root;      ///< per tree: its root node
    std::vector<std::uint32_t> depth;    ///< per tree: its deepest leaf
  };

  surrogate_model() = default;
  explicit surrogate_model(options opts) : opts_(opts) {}

  /// Fits the forest. features and targets must be parallel and non-empty,
  /// every feature vector of the same width, every value finite.
  void fit(const std::vector<feature_vector>& features,
           const std::vector<double>& targets, std::uint64_t seed);

  /// Discards a previous fit.
  void reset() { forest_ = flat_forest{}; }

  [[nodiscard]] bool trained() const noexcept {
    return !forest_.root.empty();
  }

  /// Mean/stddev over the per-tree predictions; trained() must hold.
  [[nodiscard]] surrogate_prediction predict(const feature_vector& x) const;

  /// The batch pass: `rows` holds n candidates of width() features each,
  /// row-major. Writes each candidate's sum and sum of squares of the
  /// per-tree predictions, accumulated in tree order. trained() must hold.
  void predict_sums(const double* rows, std::size_t n, double* sum,
                    double* sum_sq) const;

  /// Mean and population stddev from predict_sums' sums.
  [[nodiscard]] surrogate_prediction summarize(double sum,
                                               double sum_sq) const;

  /// Tree steps predict_sums takes per candidate: the sum of tree depths.
  [[nodiscard]] std::uint64_t steps_per_candidate() const noexcept;

  [[nodiscard]] const flat_forest& forest() const noexcept { return forest_; }

  [[nodiscard]] const options& opts() const noexcept { return opts_; }

private:
  friend void detail::fit_forests(const std::vector<detail::forest_fit>&,
                                  std::size_t);

  options opts_;
  flat_forest forest_;
};

namespace detail {

/// One forest of a batch fit: the model to refit and its training data
/// (parallel, non-empty, one width, every value finite).
struct forest_fit {
  surrogate_model* model = nullptr;
  const std::vector<feature_vector>* features = nullptr;
  const std::vector<double>* targets = nullptr;
  std::uint64_t seed = 0;
};

/// Refits every model of `fits` as one batch: all their trees are grown by
/// at most `workers` threads, the calling thread and helpers from one
/// process-wide pool. The forests do not depend on `workers`, which tests
/// check with several counts. surrogate_model::fit and
/// surrogate_trainer::fit_pending pass 1 for a batch of fewer than 4096
/// sample-trees (trees × samples) and hardware concurrency clamped to
/// [1, 4] otherwise, as for the service's poll loops.
void fit_forests(const std::vector<forest_fit>& fits, std::size_t workers);

/// The seed of tree `tree`'s stream in a fit seeded with `seed`.
[[nodiscard]] std::uint64_t tree_seed(std::uint64_t seed,
                                      std::size_t tree) noexcept;

}  // namespace detail

/// Shared training-set management for the surrogate techniques: keeps a
/// bounded window of samples, schedules refits of the cost model (valid
/// samples only) and the invalid classifier head (all samples) at
/// deterministic points, and folds both into one acquisition score.
///
/// Deferred refits. A refit that falls due only records the window it must
/// fit and the seed it fits with; the forests are built by fit_pending(),
/// which the techniques call right before they score. A later due refit
/// supersedes an unbuilt one (per head: a due refit over an all-valid window
/// leaves a pending classifier fit alone, as an eager refit would have left
/// the classifier it had built). Samples a pending fit still needs are kept
/// after they leave the window. The models fit_pending() builds are
/// bit-identical to the ones an eager refit at the due point would have
/// built, so scores — and every proposal stream — do not depend on when a
/// fit is built; warm-starting from a 200-record journal builds one fit
/// instead of twelve.
class surrogate_trainer {
public:
  struct options {
    std::size_t min_train = 16;       ///< valid samples before the model is used
    std::size_t refit_interval = 16;  ///< new samples between refits
    std::size_t max_train = 2048;     ///< newest samples kept
    double kappa = 1.0;               ///< LCB weight on the cross-tree stddev
    double invalid_weight = 4.0;      ///< acquisition penalty per unit P(invalid)
    surrogate_model::options model;
  };

  surrogate_trainer() : surrogate_trainer(options{}, 0) {}
  surrogate_trainer(options opts, std::uint64_t seed);

  /// Resets samples and models; the RNG restarts from `seed`.
  void reset(std::uint64_t seed);

  /// Adds one observation. Invalid observations (the caller decides — the
  /// techniques pass non-finite or penalty-threshold costs) never reach the
  /// regression targets; they only train the classifier head. Schedules a
  /// refit once enough new samples accumulated.
  void add(feature_vector features, double cost, bool invalid);

  /// True once the cost model is fit or scheduled — i.e. at least
  /// min_train valid samples were seen.
  [[nodiscard]] bool ready() const noexcept {
    return cost_model_.trained() || cost_fit_.due;
  }

  /// Builds the scheduled refit, if any; score() requires it.
  void fit_pending();

  /// Acquisition score, lower is better: LCB of the transformed cost
  /// (mean − kappa·stddev) plus invalid_weight · P(invalid). Requires
  /// ready() and no unbuilt refit (fit_pending()); throws std::logic_error
  /// while a scheduled refit is unbuilt. The batch of one.
  [[nodiscard]] double score(const feature_vector& x) const;

  /// Scores n candidates at once: `rows` holds n feature vectors of the
  /// trained width, row-major; scores[i] is bit-identical to score() of
  /// row i. One batch pass per head over the whole block.
  void score_batch(const double* rows, std::size_t n, double* scores) const;

  /// Forest steps score_batch takes per candidate over both heads.
  [[nodiscard]] std::uint64_t steps_per_candidate() const noexcept;

  [[nodiscard]] std::size_t samples() const noexcept { return window_; }
  [[nodiscard]] std::size_t valid_samples() const noexcept { return valid_; }
  [[nodiscard]] std::size_t invalid_samples() const noexcept {
    return window_ - valid_;
  }
  /// Refits scheduled since reset (each seeds its own fit).
  [[nodiscard]] std::uint64_t refits() const noexcept { return refits_; }
  /// Refits actually built by fit_pending() since reset: each builds the
  /// cost forest, the classifier forest or both.
  [[nodiscard]] std::uint64_t fits() const noexcept { return fits_; }
  /// Training samples over every forest built since reset.
  [[nodiscard]] std::uint64_t fit_samples() const noexcept {
    return fit_samples_;
  }
  /// Wall time fit_pending() spent building forests since reset.
  [[nodiscard]] double fit_seconds() const noexcept { return fit_seconds_; }

  [[nodiscard]] const options& opts() const noexcept { return opts_; }

private:
  /// A scheduled, not yet built fit of one head: the absolute sample range
  /// [begin, end) that was the window when it fell due.
  struct scheduled_fit {
    bool due = false;
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::uint64_t seed = 0;
  };

  void schedule_refit();
  void drop_unneeded();

  options opts_;
  std::uint64_t seed_ = 0;
  /// Samples with absolute indices [first_, added_): the window (the newest
  /// window_ of them) plus older samples an unbuilt fit still reads.
  std::deque<feature_vector> features_;
  std::deque<double> targets_;  ///< asinh(cost); 0 for invalid
  std::deque<char> invalid_;    ///< per-sample invalid label
  std::uint64_t first_ = 0;
  std::uint64_t added_ = 0;
  std::size_t window_ = 0;
  std::size_t valid_ = 0;  ///< valid samples in the window
  std::size_t new_since_fit_ = 0;
  std::uint64_t refits_ = 0;
  std::uint64_t fits_ = 0;
  std::uint64_t fit_samples_ = 0;
  double fit_seconds_ = 0.0;
  scheduled_fit cost_fit_;
  scheduled_fit invalid_fit_;
  surrogate_model cost_model_;
  surrogate_model invalid_model_;
  bool have_invalid_model_ = false;
};

}  // namespace atf::search
