// The full search space: the cross product of per-group trees.
//
// Groups are independent by definition (Section V), so the space size is the
// product of the group sizes and a flat configuration index decomposes into
// one leaf index per group (mixed radix, group 0 most significant). Group
// trees can be generated concurrently — one thread per group as the paper
// describes, and additionally chunk-parallel *within* each group (per-thread
// evaluation contexts, see tp.hpp), so a single-group space such as
// XgemmDirect scales with cores instead of with group count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "atf/common/rng.hpp"
#include "atf/configuration.hpp"
#include "atf/space_tree.hpp"
#include "atf/tp.hpp"

namespace atf {

/// How the per-group trees are generated.
enum class generation_mode {
  /// Everything on the calling thread, in the ambient evaluation context.
  sequential,
  /// One std::thread per dependency group (paper, Section V, verbatim).
  /// Within a group, generation stays sequential.
  per_group,
  /// Nested parallelism: groups are dispatched across a shared thread pool
  /// AND each group's root range is expanded in chunks on the same pool,
  /// each chunk under a private evaluation context. Results are
  /// bit-identical to the other modes.
  intra_group,
};

class search_space;

namespace detail {

/// The test oracle: `groups` generated as search_space::generate would, but
/// every group with the plain expansion loop into CSR levels — the form the
/// shared-suffix DAG falls back to — instead of the DAG. Same
/// configurations, index order, node numbering and logical counters;
/// checked_values equals visited_values and stored_nodes equals nodes.
[[nodiscard]] search_space generate_plain(const std::vector<tp_group>& groups,
                                          generation_mode mode,
                                          std::size_t threads = 0,
                                          const generation_policy& policy = {});

}  // namespace detail

class search_space {
public:
  /// Decodes configuration indices into value indices — each parameter's
  /// position in its range, in declaration order — through one storage
  /// cursor per group that lives as long as the decoder, so repeated
  /// decodes reuse the cursors' cached chunks. Valid while the space lives;
  /// one thread at a time.
  class index_decoder {
  public:
    explicit index_decoder(const search_space& space);

    /// Writes num_parameters() value indices of configuration `index` to
    /// `out`.
    void value_indices(std::uint64_t index, std::uint32_t* out);

    /// Sibling steps the cursors' walks took (cursor::sibling_steps).
    [[nodiscard]] std::uint64_t sibling_steps() const noexcept;

  private:
    const search_space* space_;
    /// Per group; null for a group without parameters.
    std::vector<std::unique_ptr<detail::space_storage::cursor>> cursors_;
  };

  search_space() = default;

  /// Generates the space for the given groups. `threads` sizes the pool for
  /// intra_group mode (0 = hardware concurrency) and is ignored by the
  /// other modes. `policy` tunes the adaptive chunk scheduler of intra_group
  /// mode (over-partition factor, hot-chunk re-splitting — see
  /// generation_policy); it never affects the generated space, only load
  /// balance.
  static search_space generate(const std::vector<tp_group>& groups,
                               generation_mode mode,
                               std::size_t threads = 0,
                               const generation_policy& policy = {});

  /// Back-compat convenience: `parallel` maps to intra_group (the fastest
  /// mode; bit-identical results) and false to sequential — used by benches
  /// measuring the Section V speedup.
  static search_space generate(const std::vector<tp_group>& groups,
                               bool parallel = true);

  /// Total number of valid configurations. Throws std::overflow_error at
  /// construction if the product exceeds 2^64-1.
  [[nodiscard]] std::uint64_t size() const noexcept { return size_; }
  [[nodiscard]] bool empty() const noexcept { return size_ == 0; }

  [[nodiscard]] std::size_t num_groups() const noexcept {
    return trees_.size();
  }
  [[nodiscard]] const space_tree& group(std::size_t g) const {
    return trees_[g];
  }

  /// Total number of tuning parameters across all groups.
  [[nodiscard]] std::size_t num_parameters() const noexcept;

  /// Parameter names in declaration order (group order, then in-group order).
  [[nodiscard]] std::vector<std::string> parameter_names() const;

  /// Materializes the configuration with flat index `index`; the returned
  /// configuration carries its space index.
  [[nodiscard]] configuration config_at(std::uint64_t index) const;

  /// The values of configuration `index` in declaration order (the order of
  /// parameter_names()), without the names: what config_at() is built on,
  /// for callers that only need the values.
  void values_at(std::uint64_t index, std::vector<tp_value>& out) const;

  /// Replays configuration `index` into the shared tp slots so dependent
  /// expressions (e.g. atf::glb_size arithmetic) evaluate against it. The
  /// values land in the calling thread's *current* evaluation context.
  void apply(std::uint64_t index) const;

  /// Replays configuration `index` into the private evaluation context
  /// leased by `context`, leaving the calling thread's current context
  /// untouched. Holding one lease per configuration keeps several applied
  /// configurations alive at once — the batched cost-evaluation pattern:
  /// expressions read the replayed values while the lease's context is
  /// active (scoped_eval_context::activate, or evaluating on the thread
  /// that constructed the lease).
  void apply(std::uint64_t index, const scoped_eval_context& context) const;

  [[nodiscard]] std::uint64_t random_index(common::xoshiro256& rng) const;

  /// Neighbor move: a uniformly chosen group contributes a tree neighbor,
  /// the other groups keep their leaf. Groups of size 1 are skipped.
  [[nodiscard]] std::uint64_t random_neighbor(std::uint64_t index,
                                              common::xoshiro256& rng) const;

  /// Sum of per-group generation times had generation run sequentially.
  [[nodiscard]] double sequential_generation_seconds() const noexcept;

  /// Wall-clock time of the actual (possibly parallel) generation.
  [[nodiscard]] double generation_seconds() const noexcept {
    return generation_seconds_;
  }

  [[nodiscard]] std::uint64_t node_count() const noexcept;

  /// Heap bytes the per-group node storages hold.
  [[nodiscard]] std::size_t memory_bytes() const noexcept;

private:
  friend search_space detail::generate_plain(const std::vector<tp_group>&,
                                             generation_mode, std::size_t,
                                             const generation_policy&);

  static search_space generate_impl(const std::vector<tp_group>& groups,
                                    generation_mode mode, std::size_t threads,
                                    const generation_policy& policy,
                                    bool share_suffixes);

  void decompose(std::uint64_t index, std::vector<std::uint64_t>& out) const;

  std::vector<space_tree> trees_;
  std::uint64_t size_ = 0;
  double generation_seconds_ = 0.0;
};

}  // namespace atf
