#include "atf/space_storage.hpp"

#include <algorithm>
#include <list>
#include <mutex>
#include <unordered_map>
#include <utility>

#include "atf/common/bitpack.hpp"
#include "chunk_table.hpp"

namespace atf {

const char* to_string(space_storage_backend backend) noexcept {
  switch (backend) {
    case space_storage_backend::dense:
      return "dense";
    case space_storage_backend::packed:
      return "packed";
    case space_storage_backend::lazy:
      return "lazy";
  }
  return "unknown";
}

namespace detail {

std::vector<std::uint64_t> csr_expansion::level_nodes() const {
  std::vector<std::uint64_t> nodes;
  nodes.reserve(levels.size());
  for (const csr_level& level : levels) {
    nodes.push_back(level.size());
  }
  return nodes;
}

std::uint64_t csr_expansion::expand_levels(std::size_t lvl, std::uint64_t lo,
                                           std::uint64_t hi) {
  csr_level& nodes = levels[lvl];
  const itp& param = *params_[lvl];
  counters_.visited_values += hi - lo;
  counters_.checked_values += hi - lo;

  if (lvl + 1 == levels.size()) {
    // Leaves store only their value index: every leaf has no children and
    // exactly one leaf, so the other arrays would be constant.
    const std::uint64_t before = nodes.size();
    for (std::uint64_t i = lo; i < hi; ++i) {
      if (param.set_and_check(i)) {
        nodes.value_index.push_back(static_cast<std::uint32_t>(i));
      }
    }
    return nodes.size() - before;
  }

  csr_level& children = levels[lvl + 1];
  std::uint64_t leaves = 0;
  for (std::uint64_t i = lo; i < hi; ++i) {
    if (!param.set_and_check(i)) {
      continue;
    }
    const std::uint64_t first_child = children.size();
    const std::uint64_t sub =
        expand_levels(lvl + 1, 0, params_[lvl + 1]->range_size());
    if (sub == 0) {
      // No valid completion below this prefix: the recursive call left the
      // deeper levels untouched (it never appends a dead child either), so
      // this node is simply not appended.
      ++counters_.dead_prefixes;
      continue;
    }
    nodes.value_index.push_back(static_cast<std::uint32_t>(i));
    nodes.child_begin.push_back(first_child);
    nodes.child_count.push_back(
        static_cast<std::uint32_t>(children.size() - first_child));
    nodes.leaf_count.push_back(sub);
    leaves += sub;
  }
  return leaves;
}

void space_storage::cursor::value_indices(std::uint64_t index,
                                          std::uint32_t* out) {
  std::uint64_t id = root_scan_start(index);
  const std::size_t leaf = depth_ - 1;
  for (std::size_t lvl = 0; lvl < leaf; ++lvl) {
    const std::uint64_t first = id;
    node_ref ref = node(lvl, id);
    while (index >= ref.leaf_count) {
      index -= ref.leaf_count;
      ref = node(lvl, ++id);
    }
    sibling_steps_ += lvl == 0 ? 0 : id - first;
    out[lvl] = ref.value_index;
    id = ref.child_begin;
  }
  out[leaf] = node(leaf, id + index).value_index;
}

namespace {

/// One node of a chunk level; works for csr_level and packed_level alike.
template <class Level>
node_ref read_node(const Level& nodes, std::uint64_t local, bool leaf,
                   std::uint64_t child_offset) {
  const auto value = static_cast<std::uint32_t>(nodes.value_index[local]);
  if (leaf) {
    return {value, 0, 0, 1};
  }
  return {value, nodes.child_begin[local] + child_offset,
          static_cast<std::uint32_t>(nodes.child_count[local]),
          nodes.leaf_count[local]};
}

/// The cursor of every backend. `Storage` provides table() and chunk(c),
/// which returns a pointer-like handle to chunk c's levels; the cursor pins
/// the handle of the chunk it is walking (for lazy, a shared_ptr that keeps
/// the chunk alive across LRU eviction).
template <class Storage>
class chunk_cursor final : public space_storage::cursor {
public:
  explicit chunk_cursor(const Storage& storage)
      : cursor(storage.table().depth()), storage_(storage),
        table_(storage.table()) {}

  [[nodiscard]] node_ref node(std::size_t lvl, std::uint64_t id) override {
    const auto& before = table_.node_before[lvl];
    const std::size_t c = chunk_of(before, id);
    pin(c);
    const bool leaf = lvl + 1 == table_.depth();
    return read_node((*pinned_)[lvl], id - before[c], leaf,
                     leaf ? 0 : table_.node_before[lvl + 1][c]);
  }

  [[nodiscard]] std::uint64_t root_scan_start(std::uint64_t& index) override {
    const auto& before = table_.leaf_before;
    const std::size_t c = chunk_table::owner(before, index);
    index -= before[c];
    return table_.node_before[0][c];
  }

  [[nodiscard]] std::uint64_t leaves_before_root(
      std::uint64_t node) override {
    const auto& roots_before = table_.node_before[0];
    const std::size_t c = chunk_of(roots_before, node);
    const std::uint64_t local_end = node - roots_before[c];
    std::uint64_t leaves = table_.leaf_before[c];
    if (table_.depth() == 1) {
      return leaves + local_end;  // the roots are the leaves
    }
    pin(c);
    const auto& roots = (*pinned_)[0];
    for (std::uint64_t local = 0; local < local_end; ++local) {
      leaves += roots.leaf_count[local];
    }
    return leaves;
  }

  void global_path(const std::uint64_t* ids, std::uint64_t* global) override {
    std::copy(ids, ids + table_.depth(), global);
  }

private:
  [[nodiscard]] std::size_t chunk_of(const std::vector<std::uint64_t>& before,
                                     std::uint64_t id) const {
    // The pinned chunk almost always owns the next access (all nodes of
    // one leaf's path live in one chunk); fall back to binary search.
    if (pinned_ && id >= before[pinned_chunk_] &&
        id < before[pinned_chunk_ + 1]) {
      return pinned_chunk_;
    }
    return chunk_table::owner(before, id);
  }

  void pin(std::size_t c) {
    if (pinned_ && pinned_chunk_ == c) {
      return;
    }
    pinned_ = storage_.chunk(c);
    pinned_chunk_ = c;
  }

  const Storage& storage_;
  const chunk_table& table_;
  decltype(std::declval<const Storage&>().chunk(0)) pinned_{};
  std::size_t pinned_chunk_ = 0;
};

// ---------------------------------------------------------------------------
// dense and packed: every chunk's levels resident, in the form `Level`.
// Packed leaf levels nearly vanish: only value_index is stored, at a few
// bits per leaf.

struct packed_level {
  common::packed_u64_vector value_index;
  common::packed_u64_vector child_begin;
  common::packed_u64_vector child_count;
  common::packed_u64_vector leaf_count;

  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return value_index.memory_bytes() + child_begin.memory_bytes() +
           child_count.memory_bytes() + leaf_count.memory_bytes();
  }
};

std::vector<packed_level> pack_levels(std::vector<csr_level>&& levels) {
  using common::packed_u64_vector;
  std::vector<packed_level> packed;
  packed.reserve(levels.size());
  for (csr_level& nodes : levels) {
    packed.push_back({packed_u64_vector::pack(nodes.value_index),
                      packed_u64_vector::pack(nodes.child_begin),
                      packed_u64_vector::pack(nodes.child_count),
                      packed_u64_vector::pack(nodes.leaf_count)});
    nodes = csr_level{};  // release each level as soon as it is packed
  }
  return packed;
}

template <class Level>
class resident_storage final : public table_storage {
public:
  resident_storage(space_storage_backend backend, chunk_table table,
                   std::vector<std::vector<Level>> chunks)
      : table_storage(std::move(table)), backend_(backend),
        chunks_(std::move(chunks)) {}

  [[nodiscard]] space_storage_backend backend() const noexcept override {
    return backend_;
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    std::size_t total = table_.memory_bytes();
    for (const std::vector<Level>& levels : chunks_) {
      for (const Level& nodes : levels) {
        total += nodes.memory_bytes();
      }
    }
    return total;
  }
  [[nodiscard]] std::uint64_t stored_nodes() const noexcept override {
    return node_count();
  }
  [[nodiscard]] std::unique_ptr<cursor> make_cursor() const override {
    return std::make_unique<chunk_cursor<resident_storage>>(*this);
  }

  [[nodiscard]] const std::vector<Level>* chunk(std::size_t c) const {
    return &chunks_[c];
  }

private:
  space_storage_backend backend_;
  std::vector<std::vector<Level>> chunks_;  ///< root order
};

// ---------------------------------------------------------------------------
// lazy: the chunk table, each chunk's root span, and an LRU cache of
// regenerated chunk subtrees. Re-expanding a span reproduces its nodes
// bit-identically (constraints are deterministic).

struct root_span {
  std::uint64_t lo = 0;
  std::uint64_t hi = 0;
};

class lazy_storage final : public table_storage {
public:
  lazy_storage(std::vector<std::shared_ptr<itp>> params, chunk_table table,
               std::vector<root_span> spans, std::size_t cache_bytes)
      : table_storage(std::move(table)), params_(std::move(params)),
        spans_(std::move(spans)), budget_(cache_bytes) {}

  [[nodiscard]] space_storage_backend backend() const noexcept override {
    return space_storage_backend::lazy;
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    const std::size_t total =
        table_.memory_bytes() + spans_.capacity() * sizeof(root_span);
    std::lock_guard lock(mutex_);
    return total + cached_bytes_;
  }
  [[nodiscard]] std::uint64_t stored_nodes() const noexcept override {
    return 0;
  }
  [[nodiscard]] std::unique_ptr<cursor> make_cursor() const override {
    return std::make_unique<chunk_cursor<lazy_storage>>(*this);
  }

  /// A regenerated chunk subtree. Handed out as shared_ptr<const> so LRU
  /// eviction can never free a chunk an in-flight cursor still reads.
  using levels_ptr = std::shared_ptr<const std::vector<csr_level>>;

  [[nodiscard]] levels_ptr chunk(std::size_t c) const {
    {
      std::lock_guard lock(mutex_);
      const auto it = cache_.find(c);
      if (it != cache_.end()) {
        recency_.splice(recency_.begin(), recency_, it->second.position);
        return it->second.levels;
      }
    }
    // Regenerate outside the lock: expansion replays set_and_check through
    // the calling thread's current evaluation context (thread-exclusive, so
    // concurrent regenerations cannot race; a concurrent regeneration of
    // the same chunk just produces an identical duplicate and one wins).
    csr_expansion expansion(params_);
    expansion.expand(spans_[c].lo, spans_[c].hi);
    std::size_t bytes = 0;
    for (const csr_level& nodes : expansion.levels) {
      bytes += nodes.memory_bytes();
    }
    auto levels = std::make_shared<const std::vector<csr_level>>(
        std::move(expansion.levels));

    std::lock_guard lock(mutex_);
    const auto it = cache_.find(c);
    if (it != cache_.end()) {
      recency_.splice(recency_.begin(), recency_, it->second.position);
      return it->second.levels;
    }
    recency_.push_front(c);
    cache_.emplace(c, entry{levels, bytes, recency_.begin()});
    cached_bytes_ += bytes;
    // Evict least-recently-used chunks down to the budget, always keeping
    // the chunk just inserted (a single oversized chunk must still work).
    while (cached_bytes_ > budget_ && cache_.size() > 1) {
      const std::size_t victim = recency_.back();
      recency_.pop_back();
      const auto victim_it = cache_.find(victim);
      cached_bytes_ -= victim_it->second.bytes;
      cache_.erase(victim_it);
    }
    return levels;
  }

private:
  struct entry {
    levels_ptr levels;
    std::size_t bytes = 0;
    std::list<std::size_t>::iterator position;
  };

  std::vector<std::shared_ptr<itp>> params_;
  std::vector<root_span> spans_;  ///< root order
  std::size_t budget_;

  mutable std::mutex mutex_;
  mutable std::list<std::size_t> recency_;  ///< chunk ids, most recent first
  mutable std::unordered_map<std::size_t, entry> cache_;
  mutable std::size_t cached_bytes_ = 0;
};

// ---------------------------------------------------------------------------
// Building (chunk_builder, chunk_table.hpp).

template <class Level>
auto resident_build(space_storage_backend backend) {
  return [backend](chunk_table table, std::vector<std::vector<Level>> chunks)
             -> std::shared_ptr<space_storage> {
    return std::make_shared<resident_storage<Level>>(backend, std::move(table),
                                                     std::move(chunks));
  };
}

}  // namespace

std::unique_ptr<storage_builder> make_storage_builder(
    const space_storage_policy& policy,
    std::vector<std::shared_ptr<itp>> params, bool share_suffixes) {
  const auto start_csr = [](const std::vector<std::shared_ptr<itp>>& group) {
    return std::make_unique<csr_expansion>(group);
  };
  switch (policy.backend) {
    case space_storage_backend::packed:
      return builder_of(
          std::move(params), start_csr,
          [](const chunk_summary&, csr_expansion&& chunk) {
            return pack_levels(std::move(chunk.levels));
          },
          resident_build<packed_level>(space_storage_backend::packed));
    case space_storage_backend::lazy: {
      auto build = [params, budget = policy.chunk_cache_bytes](
                       chunk_table table, std::vector<root_span> spans)
          -> std::shared_ptr<space_storage> {
        return std::make_shared<lazy_storage>(params, std::move(table),
                                              std::move(spans), budget);
      };
      return builder_of(
          std::move(params), start_csr,
          [](const chunk_summary& summary, csr_expansion&&) {
            return root_span{summary.root_lo, summary.root_hi};
          },
          std::move(build));
    }
    case space_storage_backend::dense:
      break;
  }
  if (share_suffixes && params.size() <= max_shared_suffix_depth) {
    return make_shared_suffix_builder(std::move(params));
  }
  return builder_of(
      std::move(params), start_csr,
      [](const chunk_summary&, csr_expansion&& chunk) {
        // Growth slack would otherwise be ~half of what the tree holds.
        for (csr_level& nodes : chunk.levels) {
          nodes.value_index.shrink_to_fit();
          nodes.child_begin.shrink_to_fit();
          nodes.child_count.shrink_to_fit();
          nodes.leaf_count.shrink_to_fit();
        }
        return std::move(chunk.levels);
      },
      resident_build<csr_level>(space_storage_backend::dense));
}

}  // namespace detail
}  // namespace atf
