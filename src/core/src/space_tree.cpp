#include "atf/space_tree.hpp"

#include <algorithm>
#include <atomic>
#include <limits>
#include <mutex>
#include <stdexcept>
#include <utility>

#include "atf/common/stopwatch.hpp"

namespace atf {

namespace {

/// A unit of generation work: one contiguous span of root values. Chunks
/// are pulled from a shared work queue; a hot chunk pushes the tail half of
/// its remaining span back as a fresh task.
struct chunk_task {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

/// Shared mutable state of one adaptive scheduling run: the completed-chunk
/// cost ledger the hot-chunk predicate compares against, and the chunk
/// budget that bounds re-splitting.
class chunk_scheduler {
public:
  chunk_scheduler(const generation_policy& policy, std::size_t initial_chunks,
                  std::size_t workers)
      : policy_(policy), chunk_count_(initial_chunks) {
    max_chunks_ = policy.max_chunks != 0
                      ? policy.max_chunks
                      : std::max(initial_chunks, workers * 32);
    completed_.reserve(max_chunks_);
  }

  /// Decides between root values of a running chunk whether to re-split.
  /// `checked` is the chunk's work so far (constraint calls made),
  /// `remaining` its unexpanded root values, `starving` the queue's
  /// blocked-consumer count. On true, the chunk budget is already debited
  /// for the new chunk.
  bool should_split(std::uint64_t checked, std::uint64_t remaining,
                    std::size_t starving) {
    if (!policy_.adaptive || remaining < 2 ||
        checked < policy_.min_split_visited) {
      return false;
    }
    if (policy_.split_only_when_starving && starving == 0) {
      return false;
    }
    std::lock_guard lock(mutex_);
    if (chunk_count_ >= max_chunks_) {
      return false;
    }
    // Median completed-chunk cost, floored by the split grain so a burst of
    // near-empty chunks cannot make everything look hot.
    std::uint64_t median = policy_.min_split_visited;
    if (!completed_.empty()) {
      median = std::max(median, completed_[completed_.size() / 2]);
    }
    if (static_cast<double>(checked) <=
        policy_.hot_factor * static_cast<double>(median)) {
      return false;
    }
    ++chunk_count_;
    ++resplits_;
    return true;
  }

  /// Records a finished chunk's cost (kept sorted for O(1) median reads).
  void complete(std::uint64_t checked) {
    std::lock_guard lock(mutex_);
    completed_.insert(
        std::upper_bound(completed_.begin(), completed_.end(), checked),
        checked);
  }

  [[nodiscard]] std::uint64_t resplits() const noexcept { return resplits_; }

private:
  generation_policy policy_;
  std::size_t max_chunks_;
  std::size_t chunk_count_;               ///< chunks created (initial + splits)
  std::uint64_t resplits_ = 0;
  std::vector<std::uint64_t> completed_;  ///< sorted completed-chunk costs
  std::mutex mutex_;
};

/// One finished chunk: its expansion plus the root span it covered. Chunk
/// c expands root values [root_lo, root_hi) only; deeper levels always
/// iterate their full range. root_lo keys the chunk table — spans are
/// disjoint and contiguous, so ordering chunks by root_lo reproduces the
/// sequential expansion order no matter which worker ran a chunk or how
/// often it was re-split.
struct chunk_result {
  std::unique_ptr<detail::chunk_expansion> expansion;
  std::uint64_t root_lo = 0;
  std::uint64_t root_hi = 0;
  double seconds = 0.0;
};

/// CSR bytes of a chunk's logical nodes: 24 B per inner node, 4 B per
/// leaf, which stores only its value index.
std::uint64_t csr_bytes(const std::vector<std::uint64_t>& level_nodes) {
  std::uint64_t bytes = 0;
  for (std::size_t lvl = 0; lvl < level_nodes.size(); ++lvl) {
    const bool leaf = lvl + 1 == level_nodes.size();
    bytes += level_nodes[lvl] *
             (leaf ? sizeof(std::uint32_t)
                   : 2 * sizeof(std::uint32_t) + 2 * sizeof(std::uint64_t));
  }
  return bytes;
}

}  // namespace

space_tree space_tree::generate(const tp_group& group) {
  return generate_impl(group, nullptr, generation_policy{}, true);
}

space_tree space_tree::generate(const tp_group& group,
                                common::thread_pool& pool,
                                const generation_policy& policy) {
  return generate_impl(group, &pool, policy, true);
}

space_tree space_tree::generate_impl(const tp_group& group,
                                     common::thread_pool* pool,
                                     const generation_policy& policy,
                                     bool share_suffixes) {
  space_tree tree;
  tree.params_.reserve(group.size());
  for (const auto& param : group.params()) {
    if (param->range_size() >
        std::numeric_limits<std::uint32_t>::max()) {
      throw std::invalid_argument(
          "space_tree: range of parameter '" + param->name() +
          "' exceeds 2^32 values");
    }
    tree.params_.push_back(param);
  }

  common::stopwatch timer;
  if (tree.params_.empty()) {
    // A group with no parameters contributes exactly one (empty)
    // configuration so that cross-group products stay well-defined.
    tree.leaf_total_ = 1;
    tree.storage_ = detail::make_storage_builder({}, false)->finish();
  } else if (!tree.generate_chunks(pool, policy, share_suffixes)) {
    // The DAG cannot represent this group (a constraint read outside the
    // purity contract, or a level outgrew 32-bit ids): generate it again
    // with the plain loop.
    (void)tree.generate_chunks(pool, policy, false);
  }
  tree.stats_.seconds = timer.elapsed_seconds();
  tree.stats_.nodes = tree.node_count();
  tree.stats_.stored_nodes = tree.storage_->stored_nodes();
  tree.stats_.bytes = tree.memory_bytes();
  return tree;
}

bool space_tree::generate_chunks(common::thread_pool* pool,
                                 const generation_policy& policy,
                                 bool share_suffixes) {
  const auto builder = detail::make_storage_builder(params_, share_suffixes);
  const std::uint64_t root_range = params_[0]->range_size();

  generation_stats stats;
  std::vector<chunk_stat> chunk_stats;
  std::uint64_t leaf_total = 0;
  std::mutex stats_mutex;
  std::atomic<bool> unsupported{false};

  // Consumes one finished chunk on the thread that expanded it: the
  // builder converts the expansion to its stored form before the chunk's
  // counters are booked under a short lock.
  auto consume = [&](chunk_result&& part) {
    const detail::expansion_counters counters = part.expansion->counters();
    detail::chunk_summary summary;
    summary.root_lo = part.root_lo;
    summary.leaves = counters.leaves;
    summary.level_nodes = part.expansion->level_nodes();
    chunk_stat stat;
    stat.root_lo = part.root_lo;
    stat.root_hi = part.root_hi;
    stat.visited_values = counters.visited_values;
    stat.checked_values = counters.checked_values;
    stat.leaves = counters.leaves;
    for (const std::uint64_t nodes : summary.level_nodes) {
      stat.nodes += nodes;
    }
    stat.bytes = csr_bytes(summary.level_nodes);
    stat.seconds = part.seconds;
    builder->add(std::move(summary), std::move(part.expansion));
    std::lock_guard lock(stats_mutex);
    chunk_stats.push_back(stat);
    stats.visited_values += counters.visited_values;
    stats.checked_values += counters.checked_values;
    stats.dead_prefixes += counters.dead_prefixes;
    leaf_total += counters.leaves;
  };

  // Expands root span [lo, hi) on the calling thread into one chunk.
  auto expand_chunk = [&](std::uint64_t lo, std::uint64_t hi) {
    chunk_result part;
    part.expansion = builder->start_chunk();
    part.root_lo = lo;
    part.root_hi = hi;
    common::stopwatch chunk_timer;
    part.expansion->expand(lo, hi);
    part.seconds = chunk_timer.elapsed_seconds();
    return part;
  };

  if (pool == nullptr || root_range <= 1) {
    // Sequential generation on the calling thread in the ambient
    // evaluation context, as one chunk.
    try {
      consume(expand_chunk(0, root_range));
    } catch (const detail::shared_suffix_unsupported&) {
      return false;
    }
  } else {
    // Over-partition the root range relative to the worker count so chunks
    // whose root values die early do not straggle the rest, then let
    // workers pull chunks from a shared queue. Chunk boundaries never
    // affect the result, only load balance.
    const std::size_t workers = pool->size() + 1;
    const std::uint64_t floor =
        std::max<std::size_t>(1, workers * policy.over_partition);
    const std::size_t initial =
        static_cast<std::size_t>(std::min(root_range, floor));
    const auto bounds = common::partition_evenly(
        static_cast<std::size_t>(root_range), initial);

    chunk_scheduler scheduler(policy, bounds.size() - 1, workers);
    common::work_queue<chunk_task> queue;
    for (std::size_t c = 0; c + 1 < bounds.size(); ++c) {
      queue.push({bounds[c], bounds[c + 1]});
    }

    queue.drain(*pool, [&](chunk_task task) {
      // Lease a private evaluation context so this chunk's constraint
      // evaluations read/write slots disjoint from every concurrent chunk
      // (and from the ambient context of per-group generation threads).
      detail::scoped_eval_context context;
      chunk_result part;
      part.expansion = builder->start_chunk();
      part.root_lo = task.lo;
      common::stopwatch chunk_timer;
      // Expand one root value at a time so the hot-chunk check runs
      // between values; appending value-by-value produces exactly what
      // expanding the span in one call would.
      std::uint64_t hi = task.hi;
      try {
        for (std::uint64_t i = task.lo; i < hi; ++i) {
          if (unsupported.load(std::memory_order_relaxed)) {
            return;
          }
          part.expansion->expand(i, i + 1);
          const std::uint64_t remaining = hi - (i + 1);
          if (scheduler.should_split(part.expansion->counters().checked_values,
                                     remaining, queue.starving())) {
            // Give away the tail half of the remaining span; the new chunk
            // carries its own root_lo, so the chunk table stays order-exact.
            const std::uint64_t mid = (i + 1) + remaining / 2;
            queue.push({mid, hi});
            hi = mid;
          }
        }
      } catch (const detail::shared_suffix_unsupported&) {
        unsupported.store(true, std::memory_order_relaxed);
        return;
      }
      part.root_hi = hi;
      part.seconds = chunk_timer.elapsed_seconds();
      scheduler.complete(part.expansion->counters().checked_values);
      consume(std::move(part));
    });
    if (unsupported.load()) {
      return false;
    }
    stats.resplits = scheduler.resplits();
  }

  // Chunks completed in scheduling order; restore root-value order. The
  // spans are disjoint and cover [0, root_range), so this is exactly the
  // sequential expansion order.
  std::sort(chunk_stats.begin(), chunk_stats.end(),
            [](const chunk_stat& a, const chunk_stat& b) {
              return a.root_lo < b.root_lo;
            });
  stats.chunks = chunk_stats.size();
  stats.per_chunk = std::move(chunk_stats);
  stats_ = std::move(stats);
  leaf_total_ = leaf_total;
  storage_ = builder->finish();
  return true;
}

void space_tree::path_of_with(detail::space_storage::cursor& cursor,
                              std::uint64_t index, std::uint64_t* path) const {
  std::uint64_t node = cursor.root_scan_start(index);
  for (std::size_t lvl = 0; lvl < depth(); ++lvl) {
    // Scan siblings, subtracting subtree sizes, until `index` lands inside.
    detail::node_ref ref = cursor.node(lvl, node);
    while (index >= ref.leaf_count) {
      index -= ref.leaf_count;
      ++node;
      ref = cursor.node(lvl, node);
    }
    path[lvl] = node;
    if (lvl + 1 < depth()) {
      node = ref.child_begin;
    }
  }
}

void space_tree::path_of(std::uint64_t index, std::uint64_t* path) const {
  if (index >= leaf_total_) {
    throw std::out_of_range("space_tree: leaf index out of range");
  }
  if (depth() == 0) {
    return;
  }
  const auto cursor = storage_->make_cursor();
  std::vector<std::uint64_t> ids(depth());
  path_of_with(*cursor, index, ids.data());
  cursor->global_path(ids.data(), path);
}

std::uint64_t space_tree::leaf_index_of_path(
    detail::space_storage::cursor& cursor, const std::uint64_t* path) const {
  if (depth() == 0) {
    return 0;
  }
  std::uint64_t index = cursor.leaves_before_root(path[0]);
  for (std::size_t lvl = 1; lvl < depth(); ++lvl) {
    const detail::node_ref parent = cursor.node(lvl - 1, path[lvl - 1]);
    for (std::uint64_t sibling = parent.child_begin; sibling < path[lvl];
         ++sibling) {
      index += cursor.node(lvl, sibling).leaf_count;
    }
  }
  return index;
}

std::unique_ptr<detail::space_storage::cursor> space_tree::make_cursor()
    const {
  return depth() == 0 ? nullptr : storage_->make_cursor();
}

void space_tree::value_indices(detail::space_storage::cursor& cursor,
                               std::uint64_t index,
                               std::uint32_t* out) const {
  if (index >= leaf_total_) {
    throw std::out_of_range("space_tree: leaf index out of range");
  }
  cursor.value_indices(index, out);
}

std::vector<tp_value> space_tree::values_at(std::uint64_t index) const {
  if (index >= leaf_total_) {
    throw std::out_of_range("space_tree: leaf index out of range");
  }
  std::vector<tp_value> values;
  if (depth() == 0) {
    return values;
  }
  std::vector<std::uint32_t> indices(depth());
  make_cursor()->value_indices(index, indices.data());
  values.reserve(depth());
  for (std::size_t lvl = 0; lvl < depth(); ++lvl) {
    values.push_back(value_at(lvl, indices[lvl]));
  }
  return values;
}

void space_tree::apply(std::uint64_t index) const {
  if (index >= leaf_total_) {
    throw std::out_of_range("space_tree: leaf index out of range");
  }
  if (depth() == 0) {
    return;
  }
  std::vector<std::uint32_t> indices(depth());
  make_cursor()->value_indices(index, indices.data());
  for (std::size_t lvl = 0; lvl < depth(); ++lvl) {
    // set_and_check both writes the shared slot and re-evaluates the
    // constraint; the value is valid by construction, so the result is
    // discarded.
    (void)params_[lvl]->set_and_check(indices[lvl]);
  }
}

std::uint64_t space_tree::random_index(common::xoshiro256& rng) const {
  return rng.below(leaf_total_);
}

std::uint64_t space_tree::random_neighbor(std::uint64_t index,
                                          common::xoshiro256& rng) const {
  if (leaf_total_ <= 1 || depth() == 0) {
    return index;
  }
  const auto cursor = storage_->make_cursor();
  std::vector<std::uint64_t> path(depth());
  path_of_with(*cursor, index, path.data());

  // Sibling spans along the current path: {first sibling, sibling count}.
  struct span {
    std::uint64_t begin;
    std::uint64_t count;
  };
  std::vector<span> spans(depth());
  spans[0] = {0, storage_->level_size(0)};
  for (std::size_t d = 1; d < depth(); ++d) {
    const detail::node_ref parent = cursor->node(d - 1, path[d - 1]);
    spans[d] = {parent.child_begin, parent.child_count};
  }

  // Try levels in random order until one offers a sibling to move to.
  std::vector<std::size_t> order(depth());
  for (std::size_t i = 0; i < order.size(); ++i) {
    order[i] = i;
  }
  for (std::size_t i = order.size(); i > 1; --i) {
    std::swap(order[i - 1], order[rng.below(i)]);
  }

  for (const std::size_t lvl : order) {
    const span siblings = spans[lvl];
    if (siblings.count <= 1) {
      continue;
    }
    // Geometrically distributed step in sibling order. Ranges are ordered,
    // so adjacent siblings hold adjacent parameter values — this makes the
    // move genuinely local, which simulated annealing relies on.
    const std::uint64_t ordinal = path[lvl] - siblings.begin;
    std::uint64_t step = 1;
    while (rng.uniform() < 0.5 && step < siblings.count) {
      step *= 2;
    }
    step = std::min<std::uint64_t>(step, siblings.count - 1);
    std::uint64_t target;
    if (rng.uniform() < 0.5) {
      target = ordinal >= step ? ordinal - step : ordinal + step;
    } else {
      target = ordinal + step < siblings.count ? ordinal + step
                                               : ordinal - step;
    }
    if (target >= siblings.count) {
      target = (ordinal + 1) % siblings.count;
    }
    if (target == ordinal) {
      target = (ordinal + 1) % siblings.count;
    }

    // Build the new path: prefix unchanged, new sibling at `lvl`, and below
    // it keep each level's child *ordinal* (clamped) so the suffix stays as
    // close as the tree allows to the old configuration.
    std::vector<std::uint64_t> next(path);
    next[lvl] = siblings.begin + target;
    for (std::size_t d = lvl + 1; d < depth(); ++d) {
      const detail::node_ref parent = cursor->node(d - 1, next[d - 1]);
      const std::uint64_t old_ordinal = path[d] - spans[d].begin;
      next[d] = parent.child_begin +
                std::min<std::uint64_t>(old_ordinal, parent.child_count - 1);
    }
    return leaf_index_of_path(*cursor, next.data());
  }
  return index;
}

std::uint64_t space_tree::node_count() const noexcept {
  return storage_ ? storage_->node_count() : 0;
}

std::size_t space_tree::memory_bytes() const noexcept {
  return storage_ ? storage_->memory_bytes() : 0;
}

}  // namespace atf
