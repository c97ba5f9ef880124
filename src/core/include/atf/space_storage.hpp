// Node storage behind the constrained search-space tree.
//
// The tree's access algorithms (path_of, values_at, apply, random_neighbor)
// only ever read one node at a time — value index, child span, leaf count —
// so the representation of the levels sits behind a small cursor interface
// that no index-based consumer sees. Decoding a leaf to its value indices
// (cursor::value_indices, under values_at and apply) is the one walk a
// representation may run over its own arrays instead; the DAG does.
//
// Generation expands the root range in contiguous chunks and never
// concatenates them: a *chunk table* — per-chunk leaf and per-level logical
// node prefix sums, in root-value order — places each chunk in the global
// dense node numbering. Leaf levels store only value indices (a leaf has no
// children and one leaf). A chunk is stored in one of two forms, chosen
// from the group, never by the caller:
//
//   shared-suffix DAG  (DESIGN.md §7, §11) per level, flat arrays of
//           entries (value index, child list id) grouped into lists, where a
//           list is stored once and referenced by every prefix whose
//           constraints read the same values. Each list carries its leaf
//           count and its logical node count at every deeper level, which
//           give node_count() and the global numbering without a
//           materialized tree.
//   plain CSR  the plain expansion loop's per-level arrays. The fallback for
//           a group the DAG cannot represent (shared_suffix_unsupported),
//           and the independent oracle the DAG is tested against
//           (detail::generate_plain, search_space.hpp).
//
// Random access is O(depth x branching) in both: a cursor jumps straight to
// the owning chunk via the table's leaf prefix sums instead of scanning the
// root level from node 0.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "atf/tp.hpp"

namespace atf {

namespace detail {

/// CSR node arrays of one tree level (= one parameter) of one chunk, as
/// the plain expansion loop produces them. child_begin is chunk-local. The
/// leaf level fills only value_index: a leaf has no children and exactly one
/// leaf.
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

/// One node, whatever is stored underneath. Node ids are positions in the
/// stored levels: the global dense numbering for CSR levels, stored-entry
/// positions for the shared-suffix DAG (cursor::global_path translates).
struct node_ref {
  std::uint32_t value_index = 0;
  std::uint64_t child_begin = 0;  ///< id of the first child
  std::uint32_t child_count = 0;
  std::uint64_t leaf_count = 0;
};

/// Counters of one chunk's expansion.
struct expansion_counters {
  /// Candidate values the plain loop tests: the logical count, identical
  /// whether or not subtrees were shared.
  std::uint64_t visited_values = 0;
  std::uint64_t checked_values = 0;  ///< constraint calls actually made
  std::uint64_t dead_prefixes = 0;   ///< logical, like visited_values
  std::uint64_t leaves = 0;
};

/// One chunk's expansion in progress: generation appends root values to it
/// in order, then hands it to the storage_builder. Used by one thread at a
/// time; constraints run through that thread's evaluation context.
class chunk_expansion {
public:
  virtual ~chunk_expansion() = default;
  /// Appends root values [lo, hi), after every root value appended before.
  virtual void expand(std::uint64_t lo, std::uint64_t hi) = 0;
  /// Logical nodes per level so far.
  [[nodiscard]] virtual std::vector<std::uint64_t> level_nodes() const = 0;
  [[nodiscard]] const expansion_counters& counters() const noexcept {
    return counters_;
  }

protected:
  expansion_counters counters_;
};

/// The plain expansion loop into CSR levels: every valid prefix expands
/// every deeper level's full range. The DAG's fallback and the test oracle
/// are built by it.
class csr_expansion final : public chunk_expansion {
public:
  explicit csr_expansion(const std::vector<std::shared_ptr<itp>>& params)
      : levels(params.size()), params_(params) {}

  void expand(std::uint64_t lo, std::uint64_t hi) override {
    counters_.leaves += expand_levels(0, lo, hi);
  }
  [[nodiscard]] std::vector<std::uint64_t> level_nodes() const override;

  std::vector<csr_level> levels;

private:
  /// Expands values [lo, hi) of level `lvl` and returns the leaves
  /// appended. An inner node is appended only once its subtree has a valid
  /// completion, so the stored nodes are exactly the valid prefixes.
  std::uint64_t expand_levels(std::size_t lvl, std::uint64_t lo,
                              std::uint64_t hi);

  const std::vector<std::shared_ptr<itp>>& params_;
};

/// Thrown by a shared-suffix expansion that cannot represent its group:
/// a constraint read a handle outside the group or at/after its own level
/// (sharing would be unsound), or a level outgrew 32-bit entry ids.
/// Generation then restarts the group with the plain loop.
struct shared_suffix_unsupported {};

/// The shape of one generated root-range chunk — one row of the chunk
/// table.
struct chunk_summary {
  std::uint64_t root_lo = 0;  ///< first root value of the chunk
  std::uint64_t leaves = 0;   ///< valid configurations in the chunk
  std::vector<std::uint64_t> level_nodes;  ///< logical node count per level
};

/// Abstract node storage. Node ids are per level and shaped like CSR ids
/// (a node's children are a contiguous id span), so the tree's algorithms
/// are representation-agnostic; global_path maps them to the global dense
/// numbering. Reads go through a cursor, which remembers the chunk it read
/// last: one cursor per tree operation, or one reused across many decodes.
class space_storage {
public:
  class cursor {
  public:
    virtual ~cursor() = default;

    /// The node `id` of level `lvl`.
    [[nodiscard]] virtual node_ref node(std::size_t lvl,
                                        std::uint64_t id) = 0;

    /// Entry point of a root-level sibling scan for leaf `index`: returns
    /// the level-0 node id at which scanning may start and rewrites
    /// `index` relative to that node: the owning chunk's first root, found
    /// via the chunk table's leaf prefix sums, so a scan never reads
    /// unrelated chunks.
    [[nodiscard]] virtual std::uint64_t root_scan_start(
        std::uint64_t& index) = 0;

    /// Total leaves under level-0 nodes with id < `node` (the inverse of
    /// root_scan_start, used when composing a flat index from a path).
    [[nodiscard]] virtual std::uint64_t leaves_before_root(
        std::uint64_t node) = 0;

    /// The global dense numbering (nodes in depth-first order, per level)
    /// of the root-to-leaf path `ids`, one node id per level.
    virtual void global_path(const std::uint64_t* ids,
                             std::uint64_t* global) = 0;

    /// The value index of every level of leaf `index` (< the tree's leaf
    /// count), written to out[0, depth); the tree has at least one level.
    /// A sibling scan per inner level, then a direct offset at the leaf
    /// level (every leaf holds one leaf). This base walk reads through
    /// node(); the DAG overrides it with a walk over its level arrays.
    /// Reusing one cursor for many leaves keeps its cached chunk across
    /// calls.
    virtual void value_indices(std::uint64_t index, std::uint32_t* out);

    /// Siblings value_indices scanned past below the root level since the
    /// cursor was made. The root scan starts at the owning generation
    /// chunk, whose bounds depend on the generation schedule, so it is left
    /// out: the count depends only on the tree and the leaves decoded, the
    /// same for the DAG and CSR — a deterministic measure of decode work.
    [[nodiscard]] std::uint64_t sibling_steps() const noexcept {
      return sibling_steps_;
    }

  protected:
    explicit cursor(std::size_t depth) : depth_(depth) {}

    std::size_t depth_;
    std::uint64_t sibling_steps_ = 0;
  };

  virtual ~space_storage() = default;

  [[nodiscard]] virtual std::size_t depth() const noexcept = 0;
  /// Logical nodes of level `lvl` (identical for the DAG and CSR). Level 0
  /// is never shared, so these are also its node ids.
  [[nodiscard]] virtual std::uint64_t level_size(
      std::size_t lvl) const noexcept = 0;
  /// Total logical nodes (identical for the DAG and CSR).
  [[nodiscard]] virtual std::uint64_t node_count() const noexcept = 0;
  /// Node entries held: the DAG's entries, or every logical node (CSR).
  [[nodiscard]] virtual std::uint64_t stored_nodes() const noexcept = 0;
  /// Heap bytes held.
  [[nodiscard]] virtual std::size_t memory_bytes() const noexcept = 0;
  [[nodiscard]] virtual std::unique_ptr<cursor> make_cursor() const = 0;
};

/// Builds a storage from generation's chunks. start_chunk() hands each
/// worker an expansion of the storage's kind; workers hand back each chunk
/// as they finish it, in any order. add() converts it to the stored
/// per-chunk form on the calling thread and only then files it under a
/// short lock. finish() orders the chunks by root value, drops chunks
/// without leaves (every prefix died, so they hold no nodes either) and
/// builds the chunk table over the rest.
class storage_builder {
public:
  virtual ~storage_builder() = default;
  /// Thread-safe.
  [[nodiscard]] virtual std::unique_ptr<chunk_expansion> start_chunk()
      const = 0;
  /// Thread-safe; `chunk` must come from this builder's start_chunk().
  virtual void add(chunk_summary summary,
                   std::unique_ptr<chunk_expansion> chunk) = 0;
  [[nodiscard]] virtual std::shared_ptr<space_storage> finish() = 0;
};

/// The shared-suffix DAG's builder, or (`share_suffixes` = false, or a
/// group deeper than max_shared_suffix_depth) the plain loop's into CSR:
/// the fallback after a shared_suffix_unsupported, and the test oracle.
[[nodiscard]] std::unique_ptr<storage_builder> make_storage_builder(
    std::vector<std::shared_ptr<itp>> params, bool share_suffixes);

/// Deepest group the shared-suffix DAG handles: read sets are 64-bit masks
/// over levels. Deeper groups use the plain loop.
inline constexpr std::size_t max_shared_suffix_depth = 64;

/// The shared-suffix DAG's builder (shared_suffix.cpp).
[[nodiscard]] std::unique_ptr<storage_builder> make_shared_suffix_builder(
    std::vector<std::shared_ptr<itp>> params);

}  // namespace detail
}  // namespace atf
