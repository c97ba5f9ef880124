#include "atf/space_storage.hpp"

#include <algorithm>
#include <utility>

#include "chunk_table.hpp"

namespace atf::detail {

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

// ---------------------------------------------------------------------------
// The plain loop's CSR chunks, resident. Node ids are the global dense
// numbering; the chunk table translates them to chunk-local positions.

class csr_storage final : public table_storage {
public:
  csr_storage(chunk_table table, std::vector<std::vector<csr_level>> chunks)
      : table_storage(std::move(table)), chunks_(std::move(chunks)) {}

  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    std::size_t total = table_.memory_bytes();
    for (const std::vector<csr_level>& levels : chunks_) {
      for (const csr_level& nodes : levels) {
        total += nodes.memory_bytes();
      }
    }
    return total;
  }
  [[nodiscard]] std::uint64_t stored_nodes() const noexcept override {
    return node_count();
  }
  [[nodiscard]] std::unique_ptr<cursor> make_cursor() const override;

private:
  friend class csr_cursor;

  std::vector<std::vector<csr_level>> chunks_;  ///< root order
};

class csr_cursor final : public space_storage::cursor {
public:
  explicit csr_cursor(const csr_storage& storage)
      : cursor(storage.table().depth()), storage_(storage),
        table_(storage.table()) {}

  [[nodiscard]] node_ref node(std::size_t lvl, std::uint64_t id) override {
    const auto& before = table_.node_before[lvl];
    const std::size_t c = chunk_of(before, id);
    const csr_level& nodes = storage_.chunks_[c][lvl];
    const std::uint64_t local = id - before[c];
    if (lvl + 1 == depth_) {
      return {nodes.value_index[local], 0, 0, 1};
    }
    return {nodes.value_index[local],
            nodes.child_begin[local] + table_.node_before[lvl + 1][c],
            nodes.child_count[local], nodes.leaf_count[local]};
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
    if (depth_ == 1) {
      return leaves + local_end;  // the roots are the leaves
    }
    const csr_level& roots = storage_.chunks_[c][0];
    for (std::uint64_t local = 0; local < local_end; ++local) {
      leaves += roots.leaf_count[local];
    }
    return leaves;
  }

  void global_path(const std::uint64_t* ids, std::uint64_t* global) override {
    std::copy(ids, ids + depth_, global);
  }

private:
  [[nodiscard]] std::size_t chunk_of(const std::vector<std::uint64_t>& before,
                                     std::uint64_t id) {
    // All nodes of one leaf's path live in one chunk: try the last one.
    if (id < before[last_chunk_] || id >= before[last_chunk_ + 1]) {
      last_chunk_ = chunk_table::owner(before, id);
    }
    return last_chunk_;
  }

  const csr_storage& storage_;
  const chunk_table& table_;
  std::size_t last_chunk_ = 0;  ///< chunk of the last node read
};

std::unique_ptr<space_storage::cursor> csr_storage::make_cursor() const {
  return std::make_unique<csr_cursor>(*this);
}

}  // namespace

std::unique_ptr<storage_builder> make_storage_builder(
    std::vector<std::shared_ptr<itp>> params, bool share_suffixes) {
  if (share_suffixes && params.size() <= max_shared_suffix_depth) {
    return make_shared_suffix_builder(std::move(params));
  }
  return builder_of(
      std::move(params),
      [](const std::vector<std::shared_ptr<itp>>& group) {
        return std::make_unique<csr_expansion>(group);
      },
      [](csr_expansion&& chunk) {
        // Growth slack would otherwise be ~half of what the tree holds.
        for (csr_level& nodes : chunk.levels) {
          nodes.value_index.shrink_to_fit();
          nodes.child_begin.shrink_to_fit();
          nodes.child_count.shrink_to_fit();
          nodes.leaf_count.shrink_to_fit();
        }
        return std::move(chunk.levels);
      },
      [](chunk_table table, std::vector<std::vector<csr_level>> chunks)
          -> std::shared_ptr<space_storage> {
        return std::make_shared<csr_storage>(std::move(table),
                                             std::move(chunks));
      });
}

}  // namespace atf::detail
