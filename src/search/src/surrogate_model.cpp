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
  forest_.clear();
  forest_.reserve(opts_.trees);

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
    tree built;
    build_node(built, data, samples, 0, samples.size(), 0, rng);
    forest_.push_back(std::move(built));
  }
}

std::int32_t surrogate_model::build_node(tree& t, fit_data& data,
                                         std::vector<std::uint32_t>& samples,
                                         std::size_t lo, std::size_t hi,
                                         std::size_t depth,
                                         common::xoshiro256& rng) const {
  const std::vector<double>& targets = *data.targets;
  const std::size_t count = hi - lo;
  moments all;
  for (std::size_t i = lo; i < hi; ++i) {
    all.add(targets[samples[i]]);
  }

  const auto make_leaf = [&]() -> std::int32_t {
    node leaf;
    leaf.value = all.mean();
    t.push_back(leaf);
    return static_cast<std::int32_t>(t.size() - 1);
  };

  if (depth >= opts_.max_depth || count < 2 * opts_.min_leaf ||
      all.sse() == 0.0) {
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

  const std::int32_t self = static_cast<std::int32_t>(t.size());
  t.emplace_back();
  t[self].feature = static_cast<std::int32_t>(best_feature);
  t[self].threshold = best_threshold;
  const std::int32_t left_child =
      build_node(t, data, samples, lo, mid, depth + 1, rng);
  const std::int32_t right_child =
      build_node(t, data, samples, mid, hi, depth + 1, rng);
  t[self].left = left_child;
  t[self].right = right_child;
  return self;
}

surrogate_prediction surrogate_model::predict(const feature_vector& x) const {
  surrogate_prediction out;
  if (forest_.empty()) {
    return out;
  }
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const tree& t : forest_) {
    // The root is always node 0: build_node pushes it before recursing.
    std::int32_t at = 0;
    while (t[static_cast<std::size_t>(at)].feature >= 0) {
      const node& n = t[static_cast<std::size_t>(at)];
      at = x[static_cast<std::size_t>(n.feature)] <= n.threshold ? n.left
                                                                 : n.right;
    }
    const double y = t[static_cast<std::size_t>(at)].value;
    sum += y;
    sum_sq += y * y;
  }
  const double count = static_cast<double>(forest_.size());
  out.mean = sum / count;
  out.stddev = std::sqrt(std::max(0.0, sum_sq / count - out.mean * out.mean));
  return out;
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
  if (cost_fit_.due || invalid_fit_.due) {
    throw std::logic_error(
        "surrogate_trainer::score: a scheduled refit is unbuilt; call "
        "fit_pending() first");
  }
  const surrogate_prediction p = cost_model_.predict(x);
  double s = p.mean - opts_.kappa * p.stddev;
  if (have_invalid_model_) {
    const double raw = invalid_model_.predict(x).mean;
    s += opts_.invalid_weight * std::clamp(raw, 0.0, 1.0);
  }
  return s;
}

}  // namespace atf::search
