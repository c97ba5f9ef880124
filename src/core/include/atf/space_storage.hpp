// Pluggable node storage behind the constrained search-space tree.
//
// The tree's access algorithms (path_of, values_at, apply, random_neighbor)
// only ever read one node at a time — value index, child span, leaf count —
// so the *representation* of the CSR levels is swappable behind a small
// cursor interface without touching any index-based consumer.
//
// Generation expands the root range in contiguous chunks, and no backend
// ever concatenates them: every backend keeps one shared *chunk table* —
// per-chunk leaf and per-level node prefix sums, in root-value order — that
// translates between the global dense node numbering and chunk-local ids.
// Leaf levels store only value indices (a leaf has no children and one
// leaf). Three backends trade memory for regeneration work:
//
//   dense   each chunk's CSR levels exactly as generation produced them —
//           the bit-identity reference every other backend is tested
//           against.
//   packed  each chunk's levels bit-packed to the minimal uniform width per
//           array (atf/common/bitpack.hpp), by the worker that expanded the
//           chunk; O(1) reads.
//   lazy    no nodes at all: only the chunk table and each chunk's root
//           span survive generation. Chunk subtrees are regenerated on
//           demand — constraint evaluation is deterministic, so re-expansion
//           reproduces the chunk bit-exactly — into a bounded LRU cache.
//           Peak memory scales with the cache budget, not the space, which
//           is what lets the tuner address spaces that never fit in RAM
//           (ROADMAP: billion-configuration spaces).
//
// Random access stays O(depth x branching) in every backend: a cursor jumps
// straight to the owning chunk via the table's leaf prefix sums instead of
// scanning the root level from node 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "atf/tp.hpp"

namespace atf {

enum class space_storage_backend {
  dense,   ///< plain CSR vectors (the reference representation)
  packed,  ///< bit-packed CSR, minimal uniform width per array
  lazy,    ///< chunk summaries only; subtrees regenerated into an LRU cache
};

[[nodiscard]] const char* to_string(space_storage_backend backend) noexcept;

/// How a generated tree stores its nodes. Threaded from atf_tune /
/// tuner::space_storage(...) through search_space::generate down to
/// space_tree::generate. Never affects which configurations exist or their
/// flat-index order — only the representation (and, for lazy, whether
/// generation keeps any nodes at all).
struct space_storage_policy {
  space_storage_backend backend = space_storage_backend::dense;
  /// lazy only: byte budget of the regenerated-chunk LRU cache. The most
  /// recently used chunk is always retained, so a single chunk larger than
  /// the budget still works (the cache just holds that one chunk).
  std::size_t chunk_cache_bytes = std::size_t{64} << 20;
  /// lazy only: how many root-range chunks generation should aim for
  /// (0 = automatic). More chunks mean finer regeneration units and a
  /// lower peak RSS during both generation and access.
  std::size_t lazy_target_chunks = 0;
};

namespace detail {

/// CSR node arrays of one tree level (= one parameter) of one chunk: the
/// reference representation that generation produces and every backend is
/// built from. child_begin is chunk-local. The leaf level fills only
/// value_index: a leaf has no children and exactly one leaf.
struct csr_level {
  std::vector<std::uint32_t> value_index;  ///< index into the parameter's range
  std::vector<std::uint64_t> child_begin;  ///< first child in the next level
  std::vector<std::uint32_t> child_count;  ///< number of children
  std::vector<std::uint64_t> leaf_count;   ///< leaves in this node's subtree

  [[nodiscard]] std::uint64_t size() const noexcept {
    return value_index.size();
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return value_index.capacity() * sizeof(std::uint32_t) +
           child_begin.capacity() * sizeof(std::uint64_t) +
           child_count.capacity() * sizeof(std::uint32_t) +
           leaf_count.capacity() * sizeof(std::uint64_t);
  }
};

/// One materialized node, whatever the backend stores underneath.
struct node_ref {
  std::uint32_t value_index = 0;
  std::uint64_t child_begin = 0;  ///< global id of the first child
  std::uint32_t child_count = 0;
  std::uint64_t leaf_count = 0;
};

/// Expansion output of one root-range chunk: CSR levels plus the counters
/// that sum across chunks. Shared by tree generation and lazy chunk
/// regeneration so both produce identical bytes by construction.
struct expansion_buffers {
  std::vector<csr_level> levels;
  std::uint64_t visited_values = 0;
  std::uint64_t dead_prefixes = 0;
};

/// Expands root values [lo, hi) of level `lvl` into `out` (recursing over
/// the full range of every deeper level), filtering by each parameter's
/// constraint through the calling thread's current evaluation context.
/// Returns the number of valid configurations (leaves) appended. An inner
/// node is appended only once its subtree has a valid completion, so the
/// stored nodes are exactly the valid prefixes.
std::uint64_t expand_levels(const std::vector<std::shared_ptr<itp>>& params,
                            std::size_t lvl, std::uint64_t lo,
                            std::uint64_t hi, expansion_buffers& out);

/// The shape of one generated root-range chunk — one row of the chunk
/// table every backend shares.
struct chunk_summary {
  std::uint64_t root_lo = 0;  ///< first root value of the chunk
  std::uint64_t root_hi = 0;  ///< one past the last root value
  std::uint64_t leaves = 0;   ///< valid configurations in the chunk
  std::vector<std::uint64_t> level_nodes;  ///< node count per level
};

/// Abstract node storage. Node ids are *global* per level — identical to
/// the dense CSR numbering — so the tree's algorithms are representation-
/// agnostic. Reads go through a cursor: one cursor per tree operation,
/// giving the lazy backend a place to pin the chunk it is walking (the LRU
/// cache may not evict a chunk an operation still reads).
class space_storage {
public:
  class cursor {
  public:
    virtual ~cursor() = default;

    /// The node `id` (global per-level numbering) of level `lvl`.
    [[nodiscard]] virtual node_ref node(std::size_t lvl,
                                        std::uint64_t id) = 0;

    /// Entry point of a root-level sibling scan for leaf `index`: returns
    /// the global level-0 node id at which scanning may start and rewrites
    /// `index` relative to that node. Every backend jumps to the owning
    /// chunk's first root via the chunk table's leaf prefix sums, so a scan
    /// never reads (or, for lazy, materializes) unrelated chunks.
    [[nodiscard]] virtual std::uint64_t root_scan_start(
        std::uint64_t& index) = 0;

    /// Total leaves under level-0 nodes with id < `node` (the inverse of
    /// root_scan_start, used when composing a flat index from a path).
    [[nodiscard]] virtual std::uint64_t leaves_before_root(
        std::uint64_t node) = 0;
  };

  virtual ~space_storage() = default;

  [[nodiscard]] virtual space_storage_backend backend() const noexcept = 0;
  [[nodiscard]] virtual std::size_t depth() const noexcept = 0;
  /// Nodes of level `lvl` (global count, identical across backends).
  [[nodiscard]] virtual std::uint64_t level_size(
      std::size_t lvl) const noexcept = 0;
  /// Total logical nodes (identical across backends).
  [[nodiscard]] virtual std::uint64_t node_count() const noexcept = 0;
  /// Heap bytes actually held right now (for lazy: summaries + live cache).
  [[nodiscard]] virtual std::size_t memory_bytes() const noexcept = 0;
  [[nodiscard]] virtual std::unique_ptr<cursor> make_cursor() const = 0;
};

/// Builds a backend from generation's chunks. Workers hand over each chunk
/// as they finish it, in any order; add() converts it to the backend's own
/// per-chunk form on the calling thread (dense keeps the levels as they
/// are, packed bit-packs them, lazy drops them and keeps the root span) and
/// only then files it under a short lock. finish() orders the chunks by
/// root value, drops chunks without leaves (every prefix died, so they hold
/// no nodes either) and builds the chunk table over the rest.
class storage_builder {
public:
  virtual ~storage_builder() = default;
  /// Thread-safe.
  virtual void add(chunk_summary summary, std::vector<csr_level> levels) = 0;
  [[nodiscard]] virtual std::shared_ptr<space_storage> finish() = 0;
};

/// `params` must be the tree's own shared parameter handles: lazy
/// regeneration replays set_and_check through them in the calling thread's
/// *current* evaluation context (contexts are thread-exclusive, so
/// concurrent operations regenerate without racing; no context is leased,
/// so regeneration can never deadlock against callers that already hold
/// one).
[[nodiscard]] std::unique_ptr<storage_builder> make_storage_builder(
    const space_storage_policy& policy,
    std::vector<std::shared_ptr<itp>> params);

}  // namespace detail
}  // namespace atf
