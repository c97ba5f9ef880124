// The constrained search-space tree — ATF's contribution (iii).
//
// One tree is generated per dependency group. Parameters are expanded in
// declaration order: for every valid prefix of values, the next parameter's
// *range* is iterated and filtered by its constraint (which may read the
// prefix through shared tp slots). Prefixes with no valid completion are
// discarded. The cost of generation is therefore proportional to the number
// of valid prefixes — never to the size of the unconstrained Cartesian
// product, which is what makes ATF's generation take under a second where a
// product-then-filter generator (CLTune) runs for hours (paper, Section VI-A).
//
// The tree is stored level by level, one partial tree per generation chunk
// behind a shared chunk table (space_storage.hpp): a shared-suffix DAG that
// stores every repeated subtree once, or plain CSR levels for a group the
// DAG cannot represent. Every inner node knows the number of leaves below
// it, so the tree supports random access by flat leaf index in
// O(depth x average-branching). That random access is what lets the
// OpenTuner-style search technique treat the whole constrained space as a
// single integer parameter TP in [0, S) (paper, Section IV-C).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "atf/common/rng.hpp"
#include "atf/common/thread_pool.hpp"
#include "atf/space_storage.hpp"
#include "atf/tp.hpp"
#include "atf/value.hpp"

namespace atf {

/// Knobs of the adaptive intra-group chunk scheduler (DESIGN.md §7).
///
/// Generation starts from an over-partition of the root range and re-splits
/// chunks that turn out hot — on skewed constraint spaces (divides-chains)
/// a few root values own nearly all surviving prefixes, so no static split
/// can balance the load. None of these knobs affects the generated tree,
/// only how the work is scheduled: all settings produce spaces bit-identical
/// to sequential generation.
struct generation_policy {
  /// Initial over-partition: the root range starts as (workers + 1) × this
  /// many chunks. Re-splitting refines from there, so this only sets the
  /// granularity floor; 4 matches the pre-adaptive fixed factor.
  std::size_t over_partition = 4;
  /// A running chunk is *hot* — eligible for re-splitting — once its
  /// checked-value count (constraint calls made) exceeds this factor × the
  /// median checked-value count of the chunks completed so far.
  double hot_factor = 2.0;
  /// Never re-split before a chunk has made at least this many constraint
  /// calls; also the median stand-in while no chunk has completed. Keeps
  /// the split bookkeeping amortized against real expansion work.
  std::uint64_t min_split_visited = 512;
  /// Upper bound on total chunks, bounding the chunk table and the per-chunk
  /// bookkeeping however skewed the space is (0 = automatic:
  /// max(initial chunks, 32 × workers)).
  std::size_t max_chunks = 0;
  /// Only re-split while some consumer is starving (the shared queue ran
  /// dry) — splitting when work is still queued adds overhead for nothing.
  /// Tests turn this off to make the re-split path deterministic.
  bool split_only_when_starving = true;
  /// false restores the legacy fixed pre-partition (equal chunks, workers
  /// pull but never re-split) — the benches' imbalance baseline.
  bool adaptive = true;
};

class space_tree {
public:
  /// Per-chunk cost accounting (one entry per expanded root-range chunk, in
  /// root-value order) — what makes generation imbalance measurable.
  struct chunk_stat {
    std::uint64_t root_lo = 0;         ///< first root value of the chunk
    std::uint64_t root_hi = 0;         ///< one past the last root value
    std::uint64_t visited_values = 0;  ///< candidate values (logical)
    std::uint64_t checked_values = 0;  ///< constraint calls actually made
    std::uint64_t leaves = 0;          ///< valid configurations survived
    std::uint64_t nodes = 0;           ///< logical tree nodes contributed
    std::uint64_t bytes = 0;           ///< CSR bytes of those nodes (24 B
                                       ///< per inner node, 4 B per leaf) —
                                       ///< what a plain tree would hold
    double seconds = 0.0;              ///< wall-clock expansion time
  };

  /// Statistics about a generation run (reported by benches and tests).
  struct generation_stats {
    std::uint64_t nodes = 0;            ///< logical tree nodes (all levels)
    std::uint64_t stored_nodes = 0;     ///< node entries the storage holds
    /// Candidate values the plain loop tests, whether or not a subtree was
    /// shared (a memo hit adds the counts stored with it).
    std::uint64_t visited_values = 0;
    std::uint64_t checked_values = 0;   ///< constraint calls actually made
    std::uint64_t dead_prefixes = 0;    ///< prefixes discarded for lack of completion (logical)
    std::uint64_t chunks = 1;           ///< root-range chunks expanded (1 = sequential)
    std::uint64_t resplits = 0;         ///< hot chunks re-split by the scheduler
    std::uint64_t bytes = 0;            ///< storage memory_bytes() right after generation
    double seconds = 0.0;               ///< wall-clock generation time
    std::vector<chunk_stat> per_chunk;  ///< per-chunk accounting, root order
  };

  space_tree() = default;

  /// Generates the tree for a dependency group. The group's parameters keep
  /// sharing state with the caller's tp handles, so replaying a
  /// configuration through this tree updates the caller's expressions.
  static space_tree generate(const tp_group& group);

  /// Intra-group parallel generation: the root parameter's range is over-
  /// partitioned into contiguous chunks that workers *pull* from a shared
  /// work queue, each chunk expanded into a private partial tree under its
  /// own evaluation context (tp.hpp). A chunk whose cost races ahead of the
  /// completed-chunk median while other workers starve gives away the tail
  /// half of its remaining root span as a new chunk (generation_policy).
  /// Partial trees are never concatenated: each stays as its worker built
  /// it, and a chunk table of per-chunk leaf and node prefix sums in
  /// root-value order maps them onto the global node numbering. The result is bit-identical to sequential generation —
  /// same node numbering, child spans, leaf counts and flat-index order,
  /// regardless of worker count, chunk schedule or re-splits — and every
  /// index-based consumer is oblivious to how the tree was built. This is
  /// what parallelizes the Fig. 2 XgemmDirect case, a *single* group that
  /// Section V's one-thread-per-group scheme cannot speed up.
  static space_tree generate(const tp_group& group, common::thread_pool& pool,
                             const generation_policy& policy = {});

  /// Number of valid configurations (leaves).
  [[nodiscard]] std::uint64_t size() const noexcept { return leaf_total_; }

  /// Number of parameters (tree depth).
  [[nodiscard]] std::size_t depth() const noexcept { return params_.size(); }

  [[nodiscard]] const std::string& param_name(std::size_t level) const {
    return params_[level]->name();
  }

  [[nodiscard]] const generation_stats& stats() const noexcept {
    return stats_;
  }

  /// Writes the per-level node positions of leaf `index` into `path` (which
  /// must have depth() slots): the global dense numbering, each level's
  /// nodes counted in depth-first order, whatever the storage holds.
  void path_of(std::uint64_t index, std::uint64_t* path) const;

  /// The type-erased values of leaf `index`, one per parameter.
  [[nodiscard]] std::vector<tp_value> values_at(std::uint64_t index) const;

  /// A reader of this tree's nodes for repeated value_indices calls: reusing
  /// one keeps its cached chunk between leaves. Valid while the tree lives;
  /// null for a tree without levels.
  [[nodiscard]] std::unique_ptr<detail::space_storage::cursor> make_cursor()
      const;

  /// The range position of every level's value of leaf `index`, written to
  /// out[0, depth()), read through `cursor` (from make_cursor()).
  void value_indices(detail::space_storage::cursor& cursor,
                     std::uint64_t index, std::uint32_t* out) const;

  /// Level `level`'s parameter value at range position `value_index`.
  [[nodiscard]] tp_value value_at(std::size_t level,
                                  std::uint32_t value_index) const {
    return params_[level]->value_at(value_index);
  }

  /// Values in level `level`'s parameter range.
  [[nodiscard]] std::uint64_t range_size(std::size_t level) const {
    return params_[level]->range_size();
  }

  /// Replays leaf `index` into the shared tp slots (so that constraint /
  /// global-size expressions see its values).
  void apply(std::uint64_t index) const;

  /// A random valid configuration index.
  [[nodiscard]] std::uint64_t random_index(common::xoshiro256& rng) const;

  /// A neighbor of `index`: a uniformly chosen level's node is replaced by a
  /// random *sibling* (keeping the prefix), and the suffix below is re-drawn
  /// uniformly. If the chosen node has no sibling another level is tried; if
  /// no level has siblings (size()==1) the index itself is returned. This is
  /// the simulated-annealing move (paper, Section IV-B: "a random neighbor").
  [[nodiscard]] std::uint64_t random_neighbor(std::uint64_t index,
                                              common::xoshiro256& rng) const;

  /// Total logical nodes — the same whether stored as a DAG or as CSR.
  [[nodiscard]] std::uint64_t node_count() const noexcept;

  /// Heap bytes the node storage holds: the chunk table plus the per-chunk
  /// DAG (or CSR) levels.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

private:
  friend class search_space;

  /// `share_suffixes` = false generates with the plain loop into CSR, as
  /// the fallback does: the test oracle (detail::generate_plain).
  static space_tree generate_impl(const tp_group& group,
                                  common::thread_pool* pool,
                                  const generation_policy& policy,
                                  bool share_suffixes);

  /// Expands every root chunk into a storage, sequentially (pool null) or
  /// on the pool. Returns false, having set nothing, when the shared-suffix
  /// DAG cannot represent the group (detail::shared_suffix_unsupported).
  bool generate_chunks(common::thread_pool* pool,
                       const generation_policy& policy, bool share_suffixes);

  /// path_of against an existing cursor (one cursor per public operation).
  void path_of_with(detail::space_storage::cursor& cursor,
                    std::uint64_t index, std::uint64_t* path) const;
  [[nodiscard]] std::uint64_t leaf_index_of_path(
      detail::space_storage::cursor& cursor, const std::uint64_t* path) const;

  std::vector<std::shared_ptr<itp>> params_;
  std::shared_ptr<const detail::space_storage> storage_;
  std::uint64_t leaf_total_ = 0;
  generation_stats stats_;
};

}  // namespace atf
