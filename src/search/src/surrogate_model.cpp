#include "atf/search/surrogate_model.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

namespace atf::search {

namespace {

/// Sum and sum-of-squares accumulator for O(1) SSE of a sample range.
struct moments {
  double sum = 0.0;
  double sum_sq = 0.0;
  std::size_t n = 0;

  void add(double y) {
    sum += y;
    sum_sq += y * y;
    ++n;
  }
  void remove(double y) {
    sum -= y;
    sum_sq -= y * y;
    --n;
  }
  [[nodiscard]] double sse() const {
    if (n == 0) {
      return 0.0;
    }
    // Guard the subtraction against tiny negative rounding residue.
    return std::max(0.0, sum_sq - sum * sum / static_cast<double>(n));
  }
  [[nodiscard]] double mean() const {
    return n == 0 ? 0.0 : sum / static_cast<double>(n);
  }
};

/// Candidates one tree walks at once: independent walks whose node loads
/// overlap instead of waiting on each other.
constexpr std::size_t kLanes = 8;

/// Walks Lanes candidates (rows of forest.width features from `block`) down
/// one tree for `steps` steps and adds the leaf values to their sums.
template <std::size_t Lanes>
void walk_lanes(const surrogate_model::flat_forest& forest,
                std::int32_t root, std::uint32_t steps, const double* block,
                double* sum, double* sum_sq) {
  const std::size_t width = forest.width;
  const std::int32_t* feature = forest.feature.data();
  const double* threshold = forest.threshold.data();
  const std::array<std::int32_t, 2>* child = forest.child.data();
  std::int32_t at[Lanes];
  for (std::size_t k = 0; k < Lanes; ++k) {
    at[k] = root;
  }
  for (std::uint32_t step = 0; step < steps; ++step) {
    for (std::size_t k = 0; k < Lanes; ++k) {
      const auto node = static_cast<std::size_t>(at[k]);
      const double x =
          block[k * width + static_cast<std::size_t>(feature[node])];
      // NaN compares false and goes right.
      at[k] = child[node][x <= threshold[node] ? 0 : 1];
    }
  }
  for (std::size_t k = 0; k < Lanes; ++k) {
    const double y = forest.value[static_cast<std::size_t>(at[k])];
    sum[k] += y;
    sum_sq[k] += y * y;
  }
}

}  // namespace

struct surrogate_model::fit_data {
  std::size_t n = 0;                  ///< fit samples
  std::size_t width = 0;              ///< features per sample
  std::vector<double> values;         ///< values[f * n + i]
  std::vector<std::uint32_t> ranks;   ///< dense rank of values[f * n + i]
  std::vector<std::uint32_t> distinct;  ///< distinct values per feature
  const std::vector<double>* targets = nullptr;
  // Scratch reused by every node; a node is done with it before recursing.
  std::vector<std::size_t> feature_order;
  std::vector<std::uint32_t> sorted;
  std::vector<std::uint32_t> spill;
  std::vector<std::uint32_t> buckets;

  [[nodiscard]] double value(std::size_t f, std::uint32_t i) const {
    return values[f * n + i];
  }
  [[nodiscard]] std::uint32_t rank(std::size_t f, std::uint32_t i) const {
    return ranks[f * n + i];
  }

  /// Stable counting sort of `sorted` by feature f's rank: the permutation
  /// a stable sort by value gives.
  void sort_by(std::size_t f) {
    const std::uint32_t* r = ranks.data() + f * n;
    const std::size_t keys = distinct[f];
    buckets.assign(keys + 1, 0);
    for (const std::uint32_t i : sorted) {
      ++buckets[r[i] + 1];
    }
    for (std::size_t k = 1; k <= keys; ++k) {
      buckets[k] += buckets[k - 1];
    }
    spill.resize(sorted.size());
    for (const std::uint32_t i : sorted) {
      spill[buckets[r[i]]++] = i;
    }
    sorted.swap(spill);
  }
};

void surrogate_model::fit(const std::vector<feature_vector>& features,
                          const std::vector<double>& targets,
                          std::uint64_t seed) {
  if (features.empty() || features.size() != targets.size()) {
    throw std::invalid_argument(
        "surrogate_model::fit: features/targets must be parallel and "
        "non-empty");
  }
  forest_ = flat_forest{};
  forest_.width = features.front().size();
  forest_.root.reserve(opts_.trees);
  forest_.depth.reserve(opts_.trees);

  // Column-major values and per-feature dense ranks, computed once: equal
  // values share a rank and rank order is value order.
  fit_data data;
  data.n = features.size();
  data.width = features.front().size();
  data.targets = &targets;
  const std::size_t n = data.n;
  data.values.resize(data.width * n);
  data.ranks.resize(data.width * n);
  data.distinct.resize(data.width);
  std::vector<std::uint32_t> order(n);
  for (std::size_t f = 0; f < data.width; ++f) {
    double* column = data.values.data() + f * n;
    for (std::size_t i = 0; i < n; ++i) {
      column[i] = features[i][f];
    }
    std::iota(order.begin(), order.end(), 0u);
    std::sort(order.begin(), order.end(),
              [column](std::uint32_t a, std::uint32_t b) {
                return column[a] < column[b];
              });
    std::uint32_t rank = 0;
    for (std::size_t k = 0; k < n; ++k) {
      if (k > 0 && column[order[k - 1]] < column[order[k]]) {
        ++rank;
      }
      data.ranks[f * n + order[k]] = rank;
    }
    data.distinct[f] = rank + 1;
  }

  common::xoshiro256 rng(seed);
  std::vector<std::uint32_t> samples(n);
  for (std::size_t t = 0; t < opts_.trees; ++t) {
    for (auto& idx : samples) {
      idx = static_cast<std::uint32_t>(rng.below(n));
    }
    std::size_t deepest = 0;
    forest_.root.push_back(
        build_node(data, samples, 0, samples.size(), 0, deepest, rng));
    forest_.depth.push_back(static_cast<std::uint32_t>(deepest));
  }
}

std::int32_t surrogate_model::build_node(fit_data& data,
                                         std::vector<std::uint32_t>& samples,
                                         std::size_t lo, std::size_t hi,
                                         std::size_t depth,
                                         std::size_t& deepest,
                                         common::xoshiro256& rng) {
  const std::vector<double>& targets = *data.targets;
  const std::size_t count = hi - lo;
  moments all;
  for (std::size_t i = lo; i < hi; ++i) {
    all.add(targets[samples[i]]);
  }

  // Appends a node; a leaf's children are itself and its feature 0, so a
  // fixed-length walk can keep stepping once it arrived.
  const auto push_node = [&](std::int32_t feature, double threshold,
                             double value) {
    const auto self = static_cast<std::int32_t>(forest_.value.size());
    forest_.feature.push_back(feature);
    forest_.threshold.push_back(threshold);
    forest_.child.push_back({self, self});
    forest_.value.push_back(value);
    return self;
  };
  const auto make_leaf = [&]() -> std::int32_t {
    deepest = std::max(deepest, depth);
    return push_node(0, 0.0, all.mean());
  };

  // Without features (a space with no parameters) nothing can split.
  if (depth >= opts_.max_depth || count < 2 * opts_.min_leaf ||
      all.sse() == 0.0 || data.width == 0) {
    return make_leaf();
  }

  // Try a deterministic random subset of features (partial Fisher-Yates
  // over the feature indices), keeping the best (feature, threshold) by
  // SSE reduction; ties break toward the first candidate tried, which is
  // itself seed-determined.
  const std::size_t width = data.width;
  std::vector<std::size_t>& feature_order = data.feature_order;
  feature_order.resize(width);
  std::iota(feature_order.begin(), feature_order.end(), 0);
  const std::size_t tries = std::max<std::size_t>(
      1, static_cast<std::size_t>(
             std::ceil(opts_.feature_fraction * static_cast<double>(width))));
  for (std::size_t i = 0; i < tries && i + 1 < width; ++i) {
    const std::size_t j = i + rng.below(width - i);
    std::swap(feature_order[i], feature_order[j]);
  }

  double best_sse = std::numeric_limits<double>::infinity();
  std::size_t best_feature = 0;
  double best_threshold = 0.0;
  // Each feature's sort starts from the order the previous one left (see
  // the split-tie contract in the header).
  std::vector<std::uint32_t>& sorted = data.sorted;
  sorted.assign(samples.begin() + static_cast<std::ptrdiff_t>(lo),
                samples.begin() + static_cast<std::ptrdiff_t>(hi));
  for (std::size_t f = 0; f < tries; ++f) {
    const std::size_t feature = feature_order[f];
    data.sort_by(feature);
    moments left;
    moments right = all;
    for (std::size_t i = 0; i + 1 < count; ++i) {
      const double y = targets[sorted[i]];
      left.add(y);
      right.remove(y);
      if (data.rank(feature, sorted[i]) == data.rank(feature, sorted[i + 1])) {
        continue;  // no threshold separates equal values
      }
      if (left.n < opts_.min_leaf || right.n < opts_.min_leaf) {
        continue;
      }
      const double split_sse = left.sse() + right.sse();
      if (split_sse < best_sse) {
        const double here = data.value(feature, sorted[i]);
        const double next = data.value(feature, sorted[i + 1]);
        best_sse = split_sse;
        best_feature = feature;
        best_threshold = here + (next - here) / 2.0;
      }
    }
  }

  if (!std::isfinite(best_sse) || best_sse >= all.sse()) {
    return make_leaf();
  }

  // Partition [lo, hi) of `samples` by the chosen split, preserving
  // relative order (stable) so the recursion is deterministic.
  std::vector<std::uint32_t>& right_part = data.spill;
  right_part.clear();
  std::size_t mid = lo;
  for (std::size_t i = lo; i < hi; ++i) {
    if (data.value(best_feature, samples[i]) <= best_threshold) {
      samples[mid++] = samples[i];
    } else {
      right_part.push_back(samples[i]);
    }
  }
  std::copy(right_part.begin(), right_part.end(),
            samples.begin() + static_cast<std::ptrdiff_t>(mid));

  const std::int32_t self =
      push_node(static_cast<std::int32_t>(best_feature), best_threshold, 0.0);
  const std::int32_t left_child =
      build_node(data, samples, lo, mid, depth + 1, deepest, rng);
  const std::int32_t right_child =
      build_node(data, samples, mid, hi, depth + 1, deepest, rng);
  forest_.child[static_cast<std::size_t>(self)] = {left_child, right_child};
  return self;
}

surrogate_prediction surrogate_model::predict(const feature_vector& x) const {
  if (!trained()) {
    return {};
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  predict_sums(x.data(), 1, &sum, &sum_sq);
  return summarize(sum, sum_sq);
}

void surrogate_model::predict_sums(const double* rows, std::size_t n,
                                   double* sum, double* sum_sq) const {
  std::fill(sum, sum + n, 0.0);
  std::fill(sum_sq, sum_sq + n, 0.0);
  const std::size_t width = forest_.width;
  // Tree-major: one tree's nodes stay cache-resident over the whole block,
  // and each candidate's sums still grow in tree order.
  for (std::size_t t = 0; t < forest_.root.size(); ++t) {
    const std::int32_t root = forest_.root[t];
    const std::uint32_t steps = forest_.depth[t];
    std::size_t i = 0;
    for (; i + kLanes <= n; i += kLanes) {
      walk_lanes<kLanes>(forest_, root, steps, rows + i * width, sum + i,
                         sum_sq + i);
    }
    for (; i < n; ++i) {
      walk_lanes<1>(forest_, root, steps, rows + i * width, sum + i,
                    sum_sq + i);
    }
  }
}

surrogate_prediction surrogate_model::summarize(double sum,
                                                double sum_sq) const {
  const double count = static_cast<double>(forest_.root.size());
  surrogate_prediction out;
  out.mean = sum / count;
  out.stddev = std::sqrt(std::max(0.0, sum_sq / count - out.mean * out.mean));
  return out;
}

std::uint64_t surrogate_model::steps_per_candidate() const noexcept {
  std::uint64_t steps = 0;
  for (const std::uint32_t d : forest_.depth) {
    steps += d;
  }
  return steps;
}

surrogate_trainer::surrogate_trainer(options opts, std::uint64_t seed)
    : opts_(opts),
      cost_model_(opts.model),
      invalid_model_(opts.model) {
  reset(seed);
}

void surrogate_trainer::reset(std::uint64_t seed) {
  seed_ = seed;
  features_.clear();
  targets_.clear();
  invalid_.clear();
  first_ = 0;
  added_ = 0;
  window_ = 0;
  valid_ = 0;
  new_since_fit_ = 0;
  refits_ = 0;
  fits_ = 0;
  fit_samples_ = 0;
  fit_seconds_ = 0.0;
  cost_fit_ = {};
  invalid_fit_ = {};
  cost_model_.reset();
  invalid_model_.reset();
  have_invalid_model_ = false;
}

void surrogate_trainer::add(feature_vector features, double cost,
                            bool invalid) {
  if (window_ >= opts_.max_train && window_ > 0) {
    // The oldest sample leaves the window; the window keeps the newest
    // observations.
    if (invalid_[static_cast<std::size_t>(added_ - window_ - first_)] == 0) {
      --valid_;
    }
    --window_;
  }
  features_.push_back(std::move(features));
  targets_.push_back(invalid ? 0.0 : std::asinh(cost));
  invalid_.push_back(invalid ? 1 : 0);
  ++added_;
  ++window_;
  if (!invalid) {
    ++valid_;
  }
  ++new_since_fit_;

  const bool due = ready() ? new_since_fit_ >= opts_.refit_interval
                           : valid_ >= opts_.min_train;
  if (due) {
    schedule_refit();
  }
  drop_unneeded();
}

void surrogate_trainer::schedule_refit() {
  new_since_fit_ = 0;
  ++refits_;
  // Distinct deterministic seed per refit (and per head).
  const std::uint64_t fit_seed =
      seed_ + 0x9e3779b97f4a7c15ull * (refits_ + 1);
  const std::uint64_t begin = added_ - window_;
  if (valid_ > 0) {
    cost_fit_ = {true, begin, added_, fit_seed};
  }
  // The classifier head only exists once a failure was observed: an
  // all-valid history predicts P(invalid) = 0 without a model.
  if (valid_ < window_) {
    invalid_fit_ = {true, begin, added_, fit_seed ^ 0xa5a5a5a5a5a5a5a5ull};
  }
}

void surrogate_trainer::drop_unneeded() {
  std::uint64_t keep = added_ - window_;
  if (cost_fit_.due) {
    keep = std::min(keep, cost_fit_.begin);
  }
  if (invalid_fit_.due) {
    keep = std::min(keep, invalid_fit_.begin);
  }
  for (; first_ < keep; ++first_) {
    features_.pop_front();
    targets_.pop_front();
    invalid_.pop_front();
  }
}

void surrogate_trainer::fit_pending() {
  if (!cost_fit_.due && !invalid_fit_.due) {
    return;
  }
  const auto start = std::chrono::steady_clock::now();
  if (cost_fit_.due) {
    std::vector<feature_vector> x_valid;
    std::vector<double> y_valid;
    for (std::uint64_t i = cost_fit_.begin; i < cost_fit_.end; ++i) {
      const std::size_t at = static_cast<std::size_t>(i - first_);
      if (invalid_[at] == 0) {
        x_valid.push_back(features_[at]);
        y_valid.push_back(targets_[at]);
      }
    }
    cost_model_.fit(x_valid, y_valid, cost_fit_.seed);
    fit_samples_ += x_valid.size();
    cost_fit_.due = false;
  }
  if (invalid_fit_.due) {
    std::vector<feature_vector> x_all;
    std::vector<double> labels;
    for (std::uint64_t i = invalid_fit_.begin; i < invalid_fit_.end; ++i) {
      const std::size_t at = static_cast<std::size_t>(i - first_);
      x_all.push_back(features_[at]);
      labels.push_back(invalid_[at] != 0 ? 1.0 : 0.0);
    }
    invalid_model_.fit(x_all, labels, invalid_fit_.seed);
    fit_samples_ += x_all.size();
    have_invalid_model_ = true;
    invalid_fit_.due = false;
  }
  ++fits_;
  drop_unneeded();
  fit_seconds_ += std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - start)
                      .count();
}

double surrogate_trainer::score(const feature_vector& x) const {
  double s = 0.0;
  score_batch(x.data(), 1, &s);
  return s;
}

void surrogate_trainer::score_batch(const double* rows, std::size_t n,
                                    double* scores) const {
  if (cost_fit_.due || invalid_fit_.due) {
    throw std::logic_error(
        "surrogate_trainer::score: a scheduled refit is unbuilt; call "
        "fit_pending() first");
  }
  std::vector<double> sums(2 * n);
  double* sum = sums.data();
  double* sum_sq = sums.data() + n;
  cost_model_.predict_sums(rows, n, sum, sum_sq);
  for (std::size_t i = 0; i < n; ++i) {
    const surrogate_prediction p = cost_model_.summarize(sum[i], sum_sq[i]);
    scores[i] = p.mean - opts_.kappa * p.stddev;
  }
  if (have_invalid_model_) {
    invalid_model_.predict_sums(rows, n, sum, sum_sq);
    for (std::size_t i = 0; i < n; ++i) {
      const double raw = invalid_model_.summarize(sum[i], sum_sq[i]).mean;
      scores[i] += opts_.invalid_weight * std::clamp(raw, 0.0, 1.0);
    }
  }
}

std::uint64_t surrogate_trainer::steps_per_candidate() const noexcept {
  return cost_model_.steps_per_candidate() +
         (have_invalid_model_ ? invalid_model_.steps_per_candidate() : 0);
}

}  // namespace atf::search
