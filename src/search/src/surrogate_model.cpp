#include "atf/search/surrogate_model.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <exception>
#include <limits>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "atf/common/rng.hpp"
#include "atf/common/thread_pool.hpp"

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

/// One fit's training data, prepared once and read by every tree: the
/// feature values, column-major, and for each sample and feature the
/// histogram bin of its value, row-major.
struct fit_columns {
  const surrogate_model::options* opts = nullptr;
  std::size_t n = 0;                  ///< fit samples
  std::size_t width = 0;              ///< features per sample
  std::vector<double> values;         ///< values[f * n + i]
  /// Feature f's distinct values ascending, at levels[level_at[f] + rank].
  std::vector<double> levels;
  std::vector<std::size_t> level_at;  ///< width + 1 offsets into levels
  /// bins[i * width + f]: level_at[f] + the dense rank of values[f * n + i]
  /// (equal values share a rank, rank order is value order).
  std::vector<std::uint32_t> bins;
  const double* targets = nullptr;

  fit_columns(const surrogate_model::options& options,
              const std::vector<feature_vector>& features,
              const std::vector<double>& y)
      : opts(&options), n(features.size()), width(features.front().size()),
        values(width * n), bins(width * n), targets(y.data()) {
    std::vector<std::uint32_t> order(n);
    level_at.reserve(width + 1);
    for (std::size_t f = 0; f < width; ++f) {
      double* column = values.data() + f * n;
      for (std::size_t i = 0; i < n; ++i) {
        column[i] = features[i][f];
      }
      std::iota(order.begin(), order.end(), 0u);
      std::sort(order.begin(), order.end(),
                [column](std::uint32_t a, std::uint32_t b) {
                  return column[a] < column[b];
                });
      level_at.push_back(levels.size());
      for (std::size_t k = 0; k < n; ++k) {
        if (k == 0 || column[order[k - 1]] < column[order[k]]) {
          levels.push_back(column[order[k]]);
        }
        bins[order[k] * width + f] =
            static_cast<std::uint32_t>(levels.size() - 1);
      }
    }
    level_at.push_back(levels.size());
  }
};

/// One histogram bin: the targets of a node's samples at one rank of one
/// feature.
struct rank_bin {
  double sum = 0.0;
  std::size_t n = 0;
};

/// Grows trees one at a time, each into a flat forest of its own, reusing
/// one thread's scratch across every tree it grows.
class tree_grower {
public:
  void grow(const fit_columns& data, std::uint64_t seed,
            surrogate_model::flat_forest& tree) {
    data_ = &data;
    tree_ = &tree;
    rng_ = common::xoshiro256(seed);
    deepest_ = 0;
    if (hist_.size() < data.levels.size()) {
      hist_.resize(data.levels.size());  // every bin is zero between nodes
    }
    for (std::vector<double>* v : {&prefix_sum_, &prefix_n_, &sse_}) {
      v->resize(data.n);
    }
    present_.resize(data.n);
    spill_.resize(data.n);
    samples_.resize(data.n);
    for (std::uint32_t& idx : samples_) {
      idx = static_cast<std::uint32_t>(rng_.below(data.n));
    }
    tree.root.push_back(build(0, data.n, 0));
    tree.depth.push_back(static_cast<std::uint32_t>(deepest_));
  }

private:
  /// The best split of one node found so far.
  struct split {
    double sse = std::numeric_limits<double>::infinity();
    std::size_t feature = 0;
    double below = 0.0;  ///< the largest value going left
    double above = 0.0;  ///< the smallest value going right
  };

  /// Appends the subtree over samples_[lo, hi), whose root sits at
  /// `depth`, in preorder; returns its root node.
  std::int32_t build(std::size_t lo, std::size_t hi, std::size_t depth) {
    const fit_columns& data = *data_;
    const surrogate_model::options& opts = *data.opts;
    const std::size_t count = hi - lo;
    moments all;
    for (std::size_t i = lo; i < hi; ++i) {
      all.add(data.targets[samples_[i]]);
    }

    // Without features (a space with no parameters) nothing can split.
    if (depth >= opts.max_depth || count < 2 * opts.min_leaf ||
        all.sse() == 0.0 || data.width == 0) {
      return leaf(depth, all.mean());
    }

    // Try a deterministic random subset of features (partial Fisher-Yates
    // over the feature indices).
    const std::size_t width = data.width;
    feature_order_.resize(width);
    std::iota(feature_order_.begin(), feature_order_.end(), 0);
    const std::size_t tries = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(opts.feature_fraction *
                                              static_cast<double>(width))));
    for (std::size_t i = 0; i < tries && i + 1 < width; ++i) {
      const std::size_t j = i + rng_.below(width - i);
      std::swap(feature_order_[i], feature_order_[j]);
    }
    feature_order_.resize(std::min(tries, width));

    // One pass over the node's samples fills every tried feature's
    // histogram; each bin adds its targets in sample order.
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint32_t s = samples_[i];
      const double y = data.targets[s];
      const std::uint32_t* row = data.bins.data() + std::size_t{s} * width;
      for (const std::size_t f : feature_order_) {
        rank_bin& bin = hist_[row[f]];
        bin.sum += y;
        ++bin.n;
      }
    }
    split best;
    for (const std::size_t f : feature_order_) {
      scan(f, count, all, best);
    }

    if (!std::isfinite(best.sse) || best.sse >= all.sse()) {
      return leaf(depth, all.mean());
    }
    const double threshold = best.below + (best.above - best.below) / 2.0;

    // Partition samples_[lo, hi) by the chosen split, preserving relative
    // order (stable) so the recursion is deterministic. Every sample is
    // written to both sides and kept by one, without a branch.
    const double* column = data.values.data() + best.feature * data.n;
    std::size_t mid = lo;
    std::size_t spilled = 0;
    for (std::size_t i = lo; i < hi; ++i) {
      const std::uint32_t s = samples_[i];
      const bool left = column[s] <= threshold;
      samples_[mid] = s;
      spill_[spilled] = s;
      mid += left ? 1 : 0;
      spilled += left ? 0 : 1;
    }
    std::copy_n(spill_.begin(), spilled,
                samples_.begin() + static_cast<std::ptrdiff_t>(mid));

    const std::int32_t self =
        push_node(static_cast<std::int32_t>(best.feature), threshold, 0.0);
    const std::int32_t left_child = build(lo, mid, depth + 1);
    const std::int32_t right_child = build(mid, hi, depth + 1);
    tree_->child[static_cast<std::size_t>(self)] = {left_child, right_child};
    return self;
  }

  /// Scans feature f's filled histogram in rank order and zeroes it again.
  /// Candidate k splits after the k-th rank present; its SSE is
  /// Σy² − (L²·n_R + R²·n_L) / (n_L·n_R), clamped at 0, over the left and
  /// right target sums L and R. A candidate replaces `best` only when its
  /// SSE is strictly lower.
  void scan(std::size_t f, std::size_t count, const moments& all,
            split& best) {
    const fit_columns& data = *data_;
    rank_bin* hist = hist_.data() + data.level_at[f];
    const double* level = data.levels.data() + data.level_at[f];
    // Prefix sums after each rank present; an empty bin is written over.
    std::size_t present = 0;
    double sum = 0.0;
    std::size_t n = 0;
    for (std::uint32_t r = 0; n < count; ++r) {
      sum += hist[r].sum;
      n += hist[r].n;
      prefix_sum_[present] = sum;
      prefix_n_[present] = static_cast<double>(n);
      present_[present] = r;
      present += hist[r].n != 0 ? 1 : 0;
      hist[r] = rank_bin{};
    }
    const double total = static_cast<double>(count);
    const auto min_leaf = static_cast<double>(data.opts->min_leaf);
    for (std::size_t k = 0; k + 1 < present; ++k) {
      const double left_n = prefix_n_[k];
      const double right_n = total - left_n;
      const double left = prefix_sum_[k];
      const double right = all.sum - left;
      const double sse = std::max(
          0.0, all.sum_sq - (left * left * right_n + right * right * left_n) /
                                (left_n * right_n));
      sse_[k] = left_n >= min_leaf && right_n >= min_leaf
                    ? sse
                    : std::numeric_limits<double>::infinity();
    }
    for (std::size_t k = 0; k + 1 < present; ++k) {
      if (sse_[k] < best.sse) {
        best = {sse_[k], f, level[present_[k]], level[present_[k + 1]]};
      }
    }
  }

  /// Appends a node; a leaf's children are itself and its feature 0, so a
  /// fixed-length walk can keep stepping once it arrived.
  std::int32_t push_node(std::int32_t feature, double threshold,
                         double value) {
    const auto self = static_cast<std::int32_t>(tree_->value.size());
    tree_->feature.push_back(feature);
    tree_->threshold.push_back(threshold);
    tree_->child.push_back({self, self});
    tree_->value.push_back(value);
    return self;
  }

  std::int32_t leaf(std::size_t depth, double value) {
    deepest_ = std::max(deepest_, depth);
    return push_node(0, 0.0, value);
  }

  const fit_columns* data_ = nullptr;
  surrogate_model::flat_forest* tree_ = nullptr;
  common::xoshiro256 rng_;
  std::size_t deepest_ = 0;
  std::vector<std::uint32_t> samples_;  ///< the bootstrap, node by node
  std::vector<std::uint32_t> spill_;
  std::vector<std::size_t> feature_order_;
  std::vector<rank_bin> hist_;  ///< every feature's bins, at its levels
  // One feature's scan: prefix sums and ranks per rank present, and the
  // SSE of each candidate.
  std::vector<double> prefix_sum_;
  std::vector<double> prefix_n_;
  std::vector<std::uint32_t> present_;
  std::vector<double> sse_;
};

/// Appends a one-tree forest to `forest`, shifting its node ids.
void append_tree(surrogate_model::flat_forest& forest,
                 const surrogate_model::flat_forest& tree) {
  const auto offset = static_cast<std::int32_t>(forest.value.size());
  forest.feature.insert(forest.feature.end(), tree.feature.begin(),
                        tree.feature.end());
  forest.threshold.insert(forest.threshold.end(), tree.threshold.begin(),
                          tree.threshold.end());
  for (const std::array<std::int32_t, 2>& pair : tree.child) {
    forest.child.push_back({pair[0] + offset, pair[1] + offset});
  }
  forest.value.insert(forest.value.end(), tree.value.begin(),
                      tree.value.end());
  forest.root.push_back(tree.root.front() + offset);
  forest.depth.push_back(tree.depth.front());
}

/// One batch's trees, claimed one at a time by the threads growing them.
/// Helpers hold it by shared_ptr: one that starts after every tree was
/// claimed finds nothing to do and never touches the caller's data, so the
/// caller waits for the trees, not for every helper to wake (as
/// thread_pool::parallel_for would).
struct tree_batch {
  const std::vector<fit_columns>* fits = nullptr;
  std::vector<std::uint64_t> seeds;  ///< per fit
  std::vector<std::size_t> first;    ///< per fit: its first tree's number
  /// Per tree, in batch order: a forest holding just that tree.
  std::vector<surrogate_model::flat_forest> trees;
  std::atomic<std::size_t> next{0};
  std::mutex mutex;
  std::condition_variable finished;
  std::size_t done = 0;  ///< guarded by mutex
  std::exception_ptr error;  ///< guarded by mutex

  /// Grows trees until none is left to claim.
  void drain() {
    tree_grower grower;
    for (;;) {
      const std::size_t k = next.fetch_add(1, std::memory_order_relaxed);
      if (k >= trees.size()) {
        return;
      }
      const std::size_t f = static_cast<std::size_t>(
          std::upper_bound(first.begin(), first.end(), k) - first.begin() -
          1);
      std::exception_ptr failure;
      try {
        grower.grow((*fits)[f], detail::tree_seed(seeds[f], k - first[f]),
                    trees[k]);
      } catch (...) {
        failure = std::current_exception();
      }
      std::lock_guard lock(mutex);
      if (failure && !error) {
        error = failure;
      }
      if (++done == trees.size()) {
        finished.notify_all();
      }
    }
  }
};

/// Threads that grow one batch's trees when the batch is large.
std::size_t forest_workers() noexcept {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

/// Below this many sample-trees (trees × samples, summed over a batch) the
/// fitting thread grows the batch alone. That is about half a millisecond
/// of growth, less than waking sleeping helpers can cost; the small fits of
/// surrogate_arm stay off the pool, which a daemon's poll loops share the
/// cores with.
constexpr std::size_t min_shared_work = 4096;

/// The threads a batch is grown by outside tests.
std::size_t workers_for(const std::vector<detail::forest_fit>& fits) {
  std::size_t work = 0;
  for (const detail::forest_fit& fit : fits) {
    work += fit.model->opts().trees * fit.features->size();
  }
  return work < min_shared_work ? 1 : forest_workers();
}

/// The helpers of every batch: forest_workers() - 1 threads, the fitting
/// thread being the last worker.
common::thread_pool& forest_pool() {
  static common::thread_pool pool(
      std::max<std::size_t>(forest_workers(), 2) - 1);
  return pool;
}

}  // namespace

namespace detail {

std::uint64_t tree_seed(std::uint64_t seed, std::size_t tree) noexcept {
  // splitmix64's output function over the seed's tree-th step.
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (tree + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void fit_forests(const std::vector<forest_fit>& fits, std::size_t workers) {
  for (const forest_fit& fit : fits) {
    if (fit.features->empty() ||
        fit.features->size() != fit.targets->size()) {
      throw std::invalid_argument(
          "surrogate_model::fit: features/targets must be parallel and "
          "non-empty");
    }
  }
  std::vector<fit_columns> columns;
  columns.reserve(fits.size());
  auto batch = std::make_shared<tree_batch>();
  std::size_t total = 0;
  for (const forest_fit& fit : fits) {
    columns.emplace_back(fit.model->opts_, *fit.features, *fit.targets);
    batch->seeds.push_back(fit.seed);
    batch->first.push_back(total);
    total += fit.model->opts_.trees;
  }
  batch->fits = &columns;
  batch->trees.resize(total);

  const std::size_t threads =
      std::min(std::max<std::size_t>(workers, 1), total);
  try {
    for (std::size_t h = 1; h < threads; ++h) {
      (void)forest_pool().submit([batch] { batch->drain(); });
    }
  } catch (...) {
    // No helper (a pool shutting down): this thread grows the rest.
  }
  batch->drain();
  {
    std::unique_lock lock(batch->mutex);
    batch->finished.wait(lock, [&] { return batch->done == total; });
    if (batch->error) {
      std::rethrow_exception(batch->error);
    }
  }

  for (std::size_t f = 0; f < fits.size(); ++f) {
    surrogate_model::flat_forest forest;
    forest.width = columns[f].width;
    const std::size_t end = f + 1 < fits.size() ? batch->first[f + 1] : total;
    for (std::size_t k = batch->first[f]; k < end; ++k) {
      append_tree(forest, batch->trees[k]);
    }
    fits[f].model->forest_ = std::move(forest);
  }
}

}  // namespace detail

void surrogate_model::fit(const std::vector<feature_vector>& features,
                          const std::vector<double>& targets,
                          std::uint64_t seed) {
  const std::vector<detail::forest_fit> batch{
      {this, &features, &targets, seed}};
  detail::fit_forests(batch, workers_for(batch));
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
  // Both heads' trees grow as one batch.
  std::vector<detail::forest_fit> batch;
  std::vector<feature_vector> x_valid;
  std::vector<double> y_valid;
  if (cost_fit_.due) {
    for (std::uint64_t i = cost_fit_.begin; i < cost_fit_.end; ++i) {
      const std::size_t at = static_cast<std::size_t>(i - first_);
      if (invalid_[at] == 0) {
        x_valid.push_back(features_[at]);
        y_valid.push_back(targets_[at]);
      }
    }
    batch.push_back({&cost_model_, &x_valid, &y_valid, cost_fit_.seed});
    fit_samples_ += x_valid.size();
    cost_fit_.due = false;
  }
  std::vector<feature_vector> x_all;
  std::vector<double> labels;
  if (invalid_fit_.due) {
    for (std::uint64_t i = invalid_fit_.begin; i < invalid_fit_.end; ++i) {
      const std::size_t at = static_cast<std::size_t>(i - first_);
      x_all.push_back(features_[at]);
      labels.push_back(invalid_[at] != 0 ? 1.0 : 0.0);
    }
    batch.push_back({&invalid_model_, &x_all, &labels, invalid_fit_.seed});
    fit_samples_ += x_all.size();
    have_invalid_model_ = true;
    invalid_fit_.due = false;
  }
  detail::fit_forests(batch, workers_for(batch));
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
