// The chunk table behind every space_storage (internal to atf_core).
// Generation's chunks partition the root range into disjoint contiguous
// spans, and sequential expansion numbers nodes chunk-by-chunk in root
// order — so per-chunk node-count prefix sums translate between the global
// dense numbering and a chunk-local one exactly, whether the chunk is
// stored as a DAG or as CSR.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <mutex>
#include <type_traits>
#include <utility>
#include <vector>

#include "atf/space_storage.hpp"

namespace atf::detail {

struct chunk_table {
  /// `chunks` in root order, every chunk with at least one leaf.
  chunk_table(std::size_t depth, const std::vector<chunk_summary>& chunks)
      : leaf_before(chunks.size() + 1, 0),
        node_before(depth, std::vector<std::uint64_t>(chunks.size() + 1, 0)) {
    for (std::size_t c = 0; c < chunks.size(); ++c) {
      leaf_before[c + 1] = leaf_before[c] + chunks[c].leaves;
      for (std::size_t lvl = 0; lvl < depth; ++lvl) {
        node_before[lvl][c + 1] =
            node_before[lvl][c] + chunks[c].level_nodes[lvl];
      }
    }
  }

  [[nodiscard]] std::size_t depth() const noexcept {
    return node_before.size();
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    std::size_t total = leaf_before.capacity() * sizeof(std::uint64_t);
    for (const auto& prefix : node_before) {
      total += prefix.capacity() * sizeof(std::uint64_t);
    }
    return total;
  }

  /// The chunk c with before[c] <= id < before[c + 1].
  [[nodiscard]] static std::size_t owner(
      const std::vector<std::uint64_t>& before, std::uint64_t id) {
    return static_cast<std::size_t>(
        std::upper_bound(before.begin(), before.end(), id) - before.begin() -
        1);
  }

  std::vector<std::uint64_t> leaf_before;  ///< [c]: leaves in chunks < c
  /// [lvl][c]: logical level-lvl nodes in chunks < c — the translation
  /// between global dense node ids and chunk-local ones.
  std::vector<std::vector<std::uint64_t>> node_before;
};

/// What the DAG and CSR share: the chunk table and the shape queries on it.
class table_storage : public space_storage {
public:
  explicit table_storage(chunk_table table) : table_(std::move(table)) {}

  [[nodiscard]] std::size_t depth() const noexcept override {
    return table_.depth();
  }
  [[nodiscard]] std::uint64_t level_size(
      std::size_t lvl) const noexcept override {
    return table_.node_before[lvl].back();
  }
  [[nodiscard]] std::uint64_t node_count() const noexcept override {
    std::uint64_t total = 0;
    for (const auto& prefix : table_.node_before) {
      total += prefix.back();
    }
    return total;
  }
  [[nodiscard]] const chunk_table& table() const noexcept { return table_; }

protected:
  chunk_table table_;
};

/// A storage_builder from three parts: `Start` makes the expansion of one
/// chunk from the group's parameters, `Convert` turns a finished expansion
/// into the stored per-chunk form on the worker's thread, and `Build` makes
/// the storage from the table and the converted chunks in root order.
template <class Start, class Convert, class Build>
class chunk_builder final : public storage_builder {
  using Expansion = typename std::invoke_result_t<
      Start, const std::vector<std::shared_ptr<itp>>&>::element_type;
  using chunk_type = std::invoke_result_t<Convert, Expansion&&>;

public:
  chunk_builder(std::vector<std::shared_ptr<itp>> params, Start start,
                Convert convert, Build build)
      : params_(std::move(params)), start_(std::move(start)),
        convert_(std::move(convert)), build_(std::move(build)) {}

  [[nodiscard]] std::unique_ptr<chunk_expansion> start_chunk()
      const override {
    return start_(params_);
  }

  void add(chunk_summary summary,
           std::unique_ptr<chunk_expansion> chunk) override {
    chunk_type converted =
        convert_(std::move(static_cast<Expansion&>(*chunk)));
    chunk.reset();  // release expansion scratch before taking the lock
    std::lock_guard lock(mutex_);
    entries_.push_back({std::move(summary), std::move(converted)});
  }

  [[nodiscard]] std::shared_ptr<space_storage> finish() override {
    std::sort(entries_.begin(), entries_.end(),
              [](const entry& a, const entry& b) {
                return a.summary.root_lo < b.summary.root_lo;
              });
    std::vector<chunk_summary> summaries;
    std::vector<chunk_type> chunks;
    for (entry& e : entries_) {
      if (e.summary.leaves != 0) {
        summaries.push_back(std::move(e.summary));
        chunks.push_back(std::move(e.chunk));
      }
    }
    entries_.clear();
    return build_(chunk_table(params_.size(), summaries), std::move(chunks));
  }

private:
  struct entry {
    chunk_summary summary;
    chunk_type chunk;
  };

  std::vector<std::shared_ptr<itp>> params_;
  Start start_;
  Convert convert_;
  Build build_;
  std::mutex mutex_;
  std::vector<entry> entries_;
};

template <class Start, class Convert, class Build>
std::unique_ptr<storage_builder> builder_of(
    std::vector<std::shared_ptr<itp>> params, Start start, Convert convert,
    Build build) {
  return std::make_unique<chunk_builder<Start, Convert, Build>>(
      std::move(params), std::move(start), std::move(convert),
      std::move(build));
}

}  // namespace atf::detail
