#include "atf/search_space.hpp"

#include <limits>
#include <stdexcept>
#include <thread>

#include "atf/common/logging.hpp"
#include "atf/common/stopwatch.hpp"
#include "atf/common/thread_pool.hpp"

namespace atf {

search_space search_space::generate(const std::vector<tp_group>& groups,
                                    bool parallel) {
  return generate(groups,
                  parallel ? generation_mode::intra_group
                           : generation_mode::sequential);
}

search_space search_space::generate(const std::vector<tp_group>& groups,
                                    generation_mode mode,
                                    std::size_t threads,
                                    const generation_policy& policy) {
  return generate_impl(groups, mode, threads, policy, true);
}

search_space detail::generate_plain(const std::vector<tp_group>& groups,
                                    generation_mode mode, std::size_t threads,
                                    const generation_policy& policy) {
  return search_space::generate_impl(groups, mode, threads, policy, false);
}

search_space search_space::generate_impl(const std::vector<tp_group>& groups,
                                         generation_mode mode,
                                         std::size_t threads,
                                         const generation_policy& policy,
                                         bool share_suffixes) {
  search_space space;
  space.trees_.resize(groups.size());

  common::stopwatch timer;
  switch (mode) {
    case generation_mode::sequential:
      for (std::size_t g = 0; g < groups.size(); ++g) {
        space.trees_[g] = space_tree::generate_impl(
            groups[g], nullptr, policy, share_suffixes);
      }
      break;

    case generation_mode::per_group: {
      if (groups.size() <= 1) {
        for (std::size_t g = 0; g < groups.size(); ++g) {
          space.trees_[g] = space_tree::generate_impl(
            groups[g], nullptr, policy, share_suffixes);
        }
        break;
      }
      // One thread per dependency group (paper, Section V). Constraints may
      // only reference parameters of the same group, so each thread's writes
      // into the ambient evaluation context touch disjoint tp states.
      std::vector<std::thread> workers;
      workers.reserve(groups.size());
      std::vector<std::exception_ptr> errors(groups.size());
      for (std::size_t g = 0; g < groups.size(); ++g) {
        workers.emplace_back([&, g] {
          try {
            space.trees_[g] = space_tree::generate_impl(
            groups[g], nullptr, policy, share_suffixes);
          } catch (...) {
            errors[g] = std::current_exception();
          }
        });
      }
      for (auto& worker : workers) {
        worker.join();
      }
      for (const auto& error : errors) {
        if (error) {
          std::rethrow_exception(error);
        }
      }
      break;
    }

    case generation_mode::intra_group: {
      // Nested parallelism on one shared pool: the outer parallel_for
      // spreads groups, and every group's generation chunks its root range
      // onto the same pool (parallel_for is re-entrant — the group task
      // itself drains chunk iterations). Per-thread evaluation contexts keep
      // concurrent chunks of the same group from racing on the tp slots.
      // The pool is clamped to the number of leasable contexts: a wider
      // pool gains nothing (every chunk task leases a context, so the
      // excess workers would only block inside the lease registry).
      std::size_t resolved = common::thread_pool::resolve_num_threads(threads);
      if (resolved > detail::max_leased_contexts()) {
        common::log_warn(
            "search_space: clamping the generation pool from ", resolved,
            " to ", detail::max_leased_contexts(),
            " threads — the per-parameter slot registry holds ",
            detail::max_eval_contexts,
            " evaluation contexts (one is the ambient context)");
        resolved = detail::max_leased_contexts();
      }
      common::thread_pool pool(resolved);
      pool.parallel_for(groups.size(), [&](std::size_t g) {
        space.trees_[g] =
            space_tree::generate_impl(groups[g], &pool, policy, share_suffixes);
      });
      break;
    }
  }
  space.generation_seconds_ = timer.elapsed_seconds();

  std::uint64_t size = groups.empty() ? 0 : 1;
  for (const auto& tree : space.trees_) {
    if (tree.size() != 0 &&
        size > std::numeric_limits<std::uint64_t>::max() / tree.size()) {
      throw std::overflow_error(
          "search_space: more than 2^64-1 valid configurations");
    }
    size *= tree.size();
  }
  space.size_ = size;
  return space;
}

std::size_t search_space::num_parameters() const noexcept {
  std::size_t count = 0;
  for (const auto& tree : trees_) {
    count += tree.depth();
  }
  return count;
}

std::vector<std::string> search_space::parameter_names() const {
  std::vector<std::string> names;
  names.reserve(num_parameters());
  for (const auto& tree : trees_) {
    for (std::size_t lvl = 0; lvl < tree.depth(); ++lvl) {
      names.push_back(tree.param_name(lvl));
    }
  }
  return names;
}

void search_space::decompose(std::uint64_t index,
                             std::vector<std::uint64_t>& out) const {
  out.resize(trees_.size());
  for (std::size_t g = trees_.size(); g-- > 0;) {
    const std::uint64_t group_size = trees_[g].size();
    out[g] = index % group_size;
    index /= group_size;
  }
}

search_space::index_decoder::index_decoder(const search_space& space)
    : space_(&space) {
  cursors_.reserve(space.trees_.size());
  for (const space_tree& tree : space.trees_) {
    cursors_.push_back(tree.make_cursor());
  }
}

void search_space::index_decoder::value_indices(std::uint64_t index,
                                                std::uint32_t* out) {
  if (index >= space_->size_) {
    throw std::out_of_range("search_space: configuration index out of range");
  }
  // Mixed radix, the last group least significant: peel groups from the
  // back, each writing its levels just before the previous group's.
  std::uint32_t* end = out + space_->num_parameters();
  for (std::size_t g = space_->trees_.size(); g-- > 0;) {
    const space_tree& tree = space_->trees_[g];
    const std::uint64_t leaf = index % tree.size();
    index /= tree.size();
    end -= tree.depth();
    if (cursors_[g]) {
      tree.value_indices(*cursors_[g], leaf, end);
    }
  }
}

std::uint64_t search_space::index_decoder::sibling_steps() const noexcept {
  std::uint64_t steps = 0;
  for (const auto& cursor : cursors_) {
    steps += cursor ? cursor->sibling_steps() : 0;
  }
  return steps;
}

void search_space::values_at(std::uint64_t index,
                             std::vector<tp_value>& out) const {
  std::vector<std::uint32_t> indices(num_parameters());
  index_decoder(*this).value_indices(index, indices.data());
  out.clear();
  out.reserve(indices.size());
  std::size_t at = 0;
  for (const space_tree& tree : trees_) {
    for (std::size_t lvl = 0; lvl < tree.depth(); ++lvl) {
      out.push_back(tree.value_at(lvl, indices[at++]));
    }
  }
}

configuration search_space::config_at(std::uint64_t index) const {
  std::vector<tp_value> values;
  values_at(index, values);
  configuration config;
  std::size_t at = 0;
  for (const space_tree& tree : trees_) {
    for (std::size_t lvl = 0; lvl < tree.depth(); ++lvl) {
      config.add(tree.param_name(lvl), std::move(values[at++]));
    }
  }
  config.set_space_index(index);
  return config;
}

void search_space::apply(std::uint64_t index) const {
  if (index >= size_) {
    throw std::out_of_range("search_space: configuration index out of range");
  }
  std::vector<std::uint64_t> leaves;
  decompose(index, leaves);
  for (std::size_t g = 0; g < trees_.size(); ++g) {
    trees_[g].apply(leaves[g]);
  }
}

void search_space::apply(std::uint64_t index,
                         const scoped_eval_context& context) const {
  const auto guard = context.activate();
  apply(index);
}

std::uint64_t search_space::random_index(common::xoshiro256& rng) const {
  return rng.below(size_);
}

std::uint64_t search_space::random_neighbor(std::uint64_t index,
                                            common::xoshiro256& rng) const {
  if (size_ <= 1) {
    return index;
  }
  std::vector<std::uint64_t> leaves;
  decompose(index, leaves);

  // Pick a group that actually has more than one leaf.
  std::vector<std::size_t> candidates;
  candidates.reserve(trees_.size());
  for (std::size_t g = 0; g < trees_.size(); ++g) {
    if (trees_[g].size() > 1) {
      candidates.push_back(g);
    }
  }
  const std::size_t g = candidates[rng.below(candidates.size())];
  leaves[g] = trees_[g].random_neighbor(leaves[g], rng);

  std::uint64_t composed = 0;
  for (std::size_t i = 0; i < trees_.size(); ++i) {
    composed = composed * trees_[i].size() + leaves[i];
  }
  return composed;
}

double search_space::sequential_generation_seconds() const noexcept {
  double total = 0.0;
  for (const auto& tree : trees_) {
    total += tree.stats().seconds;
  }
  return total;
}

std::uint64_t search_space::node_count() const noexcept {
  std::uint64_t total = 0;
  for (const auto& tree : trees_) {
    total += tree.node_count();
  }
  return total;
}

std::size_t search_space::memory_bytes() const noexcept {
  std::size_t total = 0;
  for (const auto& tree : trees_) {
    total += tree.memory_bytes();
  }
  return total;
}

}  // namespace atf
