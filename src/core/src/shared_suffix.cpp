// Shared-suffix generation and storage: the DAG (DESIGN.md §7, §11).
//
// A subtree of the constrained tree depends only on the prefix values its
// constraints read. Generation records those reads (tp.hpp's
// read_recorder) and memoizes two things per level: the whole subtree,
// under (level, the prefix levels it read, their values), and the level's
// list of valid values, under the reads of the level's own constraint. A
// memo hit adds its stored read set to the parent's, so every key is
// exact: a prefix that agrees on the recorded read set replays the same
// reads in the same order (constraints are pure) and yields the same
// subtree. A level whose memo stops paying — few hits — switches to the
// plain expansion loop; with every memo off, nothing is recorded either.
//
// The result is a DAG: per level, entries (value index, child list id)
// grouped into lists, each list stored once however many parents share
// it. Lists carry their logical node counts at every deeper level, which
// give the chunk table and the global dense numbering of path_of without
// a materialized tree.
#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "atf/space_storage.hpp"
#include "chunk_table.hpp"

namespace atf::detail {
namespace {

/// A memo level is switched to the plain loop once, at a multiple of
/// `probe_lookups` lookups, fewer than one in `min_hit_fraction` hit.
constexpr std::uint64_t probe_lookups = 256;
constexpr std::uint64_t min_hit_fraction = 8;
/// Distinct read sets one level may see before its memo gives up.
constexpr std::size_t max_read_sets = 8;
/// Smaller ranges are re-checked: a lookup would cost about as much.
constexpr std::uint64_t min_value_memo_range = 16;

constexpr std::uint32_t no_list = std::numeric_limits<std::uint32_t>::max();

/// One level of one chunk's DAG. List k of the level holds entries
/// [list_begin[k], list_begin[k + 1]).
struct dag_level {
  explicit dag_level(std::size_t stride_) : stride(stride_) {}

  std::vector<std::uint32_t> value_index;  ///< per entry
  std::vector<std::uint32_t> child;        ///< per entry: list one level down
  std::vector<std::uint32_t> list_begin{0};
  /// Per list, `stride` counts: the logical nodes at each deeper level of
  /// the list's subtree, the last being its leaves.
  std::vector<std::uint64_t> list_nodes;
  std::size_t stride;  ///< levels below this one

  [[nodiscard]] std::uint64_t list_size(std::uint32_t list) const {
    return list_begin[list + 1] - list_begin[list];
  }
  [[nodiscard]] const std::uint64_t* counts(std::uint32_t list) const {
    return list_nodes.data() + std::size_t{list} * stride;
  }
  [[nodiscard]] std::uint64_t list_leaves(std::uint32_t list) const {
    return stride == 0 ? list_size(list) : counts(list)[stride - 1];
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept {
    return (value_index.capacity() + child.capacity() +
            list_begin.capacity()) *
               sizeof(std::uint32_t) +
           list_nodes.capacity() * sizeof(std::uint64_t);
  }
};

/// Adds the subtree of `list` (a list of `level`) to per-level node counts
/// `acc`, which start at that level.
void add_counts(std::uint64_t* acc, const dag_level& level,
                std::uint32_t list) {
  acc[0] += level.list_size(list);
  const std::uint64_t* counts = level.counts(list);
  for (std::size_t j = 0; j < level.stride; ++j) {
    acc[1 + j] += counts[j];
  }
}

// ---------------------------------------------------------------------------
// Memo tables keyed by a read set and the prefix values it selects.

std::uint64_t key_hash(std::uint64_t mask, const std::uint32_t* prefix) {
  std::uint64_t hash = mask * 0x9e3779b97f4a7c15ull;
  for (std::uint64_t bits = mask; bits != 0; bits &= bits - 1) {
    hash ^= prefix[std::countr_zero(bits)];
    hash *= 0xff51afd7ed558ccdull;
    hash ^= hash >> 29;
  }
  return hash;
}

/// Open-addressing map (read set, projected prefix) → Payload, with the
/// level's distinct read sets and its hit bookkeeping.
template <class Payload>
class memo_table {
public:
  /// Turns the memo on and counts it in `live` until it switches off.
  void start(std::size_t& live) {
    live_ = &live;
    ++live;
  }
  [[nodiscard]] bool on() const noexcept { return live_ != nullptr; }

  /// The payload stored for the current prefix under any read set seen.
  [[nodiscard]] const Payload* find(const std::uint32_t* prefix) {
    if (slots_.empty()) {
      return nullptr;
    }
    const std::size_t wrap = slots_.size() - 1;
    for (const std::uint64_t mask : masks_) {
      const std::uint64_t hash = key_hash(mask, prefix);
      for (std::size_t at = hash & wrap; slots_[at] != 0;
           at = (at + 1) & wrap) {
        const entry& e = entries_[slots_[at] - 1];
        if (e.hash == hash && e.mask == mask && matches(e, prefix)) {
          ++lookups_;
          ++hits_;
          return &e.payload;
        }
      }
    }
    return nullptr;
  }

  /// Books a lookup that would have hit, made without looking.
  void book_hit() {
    ++lookups_;
    ++hits_;
  }

  /// Books a lookup that missed; returns whether the memo stays on.
  bool keep_after_miss() {
    ++lookups_;
    if (lookups_ % probe_lookups == 0 &&
        hits_ * min_hit_fraction < lookups_) {
      switch_off();
    }
    return on();
  }

  /// Stores `payload` under read set `mask`; too many distinct read sets
  /// switch the memo off instead.
  void insert(std::uint64_t mask, const std::uint32_t* prefix,
              const Payload& payload) {
    if (std::find(masks_.begin(), masks_.end(), mask) == masks_.end()) {
      if (masks_.size() == max_read_sets) {
        switch_off();
        return;
      }
      masks_.push_back(mask);
    }
    if ((entries_.size() + 1) * 2 > slots_.size()) {
      slots_.assign(std::max<std::size_t>(64, slots_.size() * 2), 0);
      for (std::size_t e = 0; e < entries_.size(); ++e) {
        place(e);
      }
    }
    entries_.push_back({key_hash(mask, prefix), mask, keys_.size(), payload});
    for (std::uint64_t bits = mask; bits != 0; bits &= bits - 1) {
      keys_.push_back(prefix[std::countr_zero(bits)]);
    }
    place(entries_.size() - 1);
  }

  /// Switches the memo off unless it has had a hit; returns whether it
  /// did.
  bool give_up_if_unused() {
    if (hits_ == 0) {
      switch_off();
    }
    return !on();
  }

private:
  struct entry {
    std::uint64_t hash;
    std::uint64_t mask;
    std::size_t key_at;  ///< the projected prefix, in keys_
    Payload payload;
  };

  [[nodiscard]] bool matches(const entry& e,
                             const std::uint32_t* prefix) const {
    const std::uint32_t* key = keys_.data() + e.key_at;
    for (std::uint64_t bits = e.mask; bits != 0; bits &= bits - 1) {
      if (*key++ != prefix[std::countr_zero(bits)]) {
        return false;
      }
    }
    return true;
  }

  void place(std::size_t e) {
    const std::size_t wrap = slots_.size() - 1;
    std::size_t at = entries_[e].hash & wrap;
    while (slots_[at] != 0) {
      at = (at + 1) & wrap;
    }
    slots_[at] = static_cast<std::uint32_t>(e + 1);
  }

  void switch_off() {
    if (live_ == nullptr) {
      return;
    }
    --*live_;
    live_ = nullptr;
    slots_ = {};
    entries_ = {};
    keys_ = {};
    masks_ = {};
  }

  std::size_t* live_ = nullptr;  ///< the owner's count of memos on
  std::vector<std::uint32_t> slots_;  ///< entry + 1; 0 = empty
  std::vector<entry> entries_;
  std::vector<std::uint32_t> keys_;
  std::vector<std::uint64_t> masks_;  ///< distinct read sets stored
  std::uint64_t lookups_ = 0;
  std::uint64_t hits_ = 0;
};

/// A generated subtree of one level: the level's list holding it (no_list:
/// no leaves), the prefix levels it read and its logical counters.
struct subtree {
  std::uint32_t list = no_list;
  std::uint64_t reads = 0;
  std::uint64_t visited = 0;
  std::uint64_t dead = 0;
};

/// A level's valid values for one own-constraint read set: a span of the
/// level's value arena.
struct value_span {
  std::size_t at = 0;
  std::size_t count = 0;
  std::uint64_t reads = 0;
};

/// Installs a read recorder on the calling thread for one constraint call.
class recording_scope {
public:
  explicit recording_scope(read_recorder& recorder) noexcept
      : previous_(active_read_recorder) {
    active_read_recorder = &recorder;
  }
  recording_scope(const recording_scope&) = delete;
  recording_scope& operator=(const recording_scope&) = delete;
  ~recording_scope() { active_read_recorder = previous_; }

private:
  read_recorder* previous_;
};

/// Memos found useless by one chunk of a group, so that chunks starting
/// later skip them: a level whose key read its whole prefix before any hit.
/// That is a property of the constraints, not of the chunk, unlike a low
/// hit rate (small root values share less than large ones), which stays
/// per chunk.
struct memo_verdicts {
  explicit memo_verdicts(std::size_t depth)
      : subtrees_off(depth), values_off(depth) {}
  std::vector<std::atomic<bool>> subtrees_off;
  std::vector<std::atomic<bool>> values_off;
};

class shared_suffix_expansion final : public chunk_expansion {
public:
  shared_suffix_expansion(const std::vector<std::shared_ptr<itp>>& params,
                          memo_verdicts& verdicts)
      : params_(params), verdicts_(verdicts), depth_(params.size()),
        prefix_(depth_, 0), level_nodes_(depth_, 0) {
    for (const auto& param : params_) {
      states_.push_back(param->state_id());
    }
    recorder_.states = states_.data();
    recorder_.depth = depth_;
    for (std::size_t lvl = 0; lvl < depth_; ++lvl) {
      const std::size_t stride = depth_ - 1 - lvl;
      levels_.emplace_back(stride);
      level_memo& memo = memos_.emplace_back();
      memo.acc.resize(stride);
      // The root level is the chunk's span, not a memoizable subtree; the
      // leaf level's subtree is its value list.
      if (lvl != 0 && !verdicts_.subtrees_off[lvl]) {
        memo.subtrees.start(live_memos_);
      }
      if (lvl != 0 && lvl + 1 < depth_ &&
          params_[lvl]->range_size() >= min_value_memo_range &&
          !verdicts_.values_off[lvl]) {
        memo.values.start(live_memos_);
      }
    }
  }

  void expand(std::uint64_t lo, std::uint64_t hi) override {
    dag_level& roots = levels_[0];
    counters_.visited_values += hi - lo;
    std::uint64_t reads = 0;
    for (std::uint64_t i = lo; i < hi; ++i) {
      if (!check(0, i, reads)) {
        continue;
      }
      prefix_[0] = static_cast<std::uint32_t>(i);
      check_id_space(roots, 1);
      if (depth_ == 1) {
        roots.value_index.push_back(static_cast<std::uint32_t>(i));
        ++level_nodes_[0];
        continue;
      }
      const subtree child = expand_level(1);
      counters_.visited_values += child.visited;
      counters_.dead_prefixes += child.dead;
      if (child.list == no_list) {
        ++counters_.dead_prefixes;
        continue;
      }
      roots.value_index.push_back(static_cast<std::uint32_t>(i));
      roots.child.push_back(child.list);
      ++level_nodes_[0];
      add_counts(level_nodes_.data() + 1, levels_[1], child.list);
    }
    counters_.leaves = level_nodes_.back();
  }

  [[nodiscard]] std::vector<std::uint64_t> level_nodes() const override {
    return level_nodes_;
  }

  /// The chunk's DAG levels, without growth slack.
  std::vector<dag_level> take_levels() && {
    for (dag_level& level : levels_) {
      level.value_index.shrink_to_fit();
      level.child.shrink_to_fit();
      level.list_begin.shrink_to_fit();
      level.list_nodes.shrink_to_fit();
    }
    return std::move(levels_);
  }

private:
  struct level_memo {
    memo_table<subtree> subtrees;
    memo_table<value_span> values;
    std::vector<std::uint32_t> value_arena;  ///< spans of `values`
    std::vector<std::uint64_t> acc;  ///< counts of the list being built
  };

  /// Sets level `lvl` to range value i and checks its constraint, adding
  /// the levels it read to `reads` while recording.
  bool check(std::size_t lvl, std::uint64_t i, std::uint64_t& reads) {
    ++counters_.checked_values;
    if (!recording()) {
      return params_[lvl]->set_and_check(i);
    }
    recorder_.mask = 0;
    bool ok;
    {
      recording_scope scope(recorder_);
      ok = params_[lvl]->set_and_check(i);
    }
    if (recorder_.foreign || (recorder_.mask >> lvl) != 0) {
      throw shared_suffix_unsupported{};
    }
    reads |= recorder_.mask;
    return ok;
  }

  /// Generates (or reuses) the subtree of level `lvl` below the current
  /// prefix of levels [0, lvl).
  subtree expand_level(std::size_t lvl) {
    level_memo& memo = memos_[lvl];
    if (memo.subtrees.on()) {
      if (const subtree* hit = memo.subtrees.find(prefix_.data())) {
        return *hit;
      }
      memo.subtrees.keep_after_miss();
    }
    subtree result;
    result.visited = params_[lvl]->range_size();
    if (lvl + 1 == depth_) {
      expand_leaves(lvl, result);
    } else {
      expand_inner(lvl, result);
    }
    // Reads of this level and below are the subtree's own choices.
    const std::uint64_t whole = (std::uint64_t{1} << lvl) - 1;
    result.reads &= whole;
    if (memo.subtrees.on()) {
      if (result.reads == whole) {
        read_whole_prefix(memo.subtrees, verdicts_.subtrees_off[lvl]);
      } else {
        memo.subtrees.insert(result.reads, prefix_.data(), result);
      }
    }
    return result;
  }

  /// A leaf list: the level's valid values (the subtree memo is its memo).
  void expand_leaves(std::size_t lvl, subtree& result) {
    const itp& param = *params_[lvl];
    const std::uint64_t range = param.range_size();
    dag_level& level = levels_[lvl];
    check_id_space(level, range);
    const std::size_t first = level.value_index.size();
    if (recording()) {
      for (std::uint64_t i = 0; i < range; ++i) {
        if (check(lvl, i, result.reads)) {
          level.value_index.push_back(static_cast<std::uint32_t>(i));
        }
        watch_whole_prefix(lvl, result.reads);
      }
    } else {
      counters_.checked_values += range;
      for (std::uint64_t i = 0; i < range; ++i) {
        if (param.set_and_check(i)) {
          level.value_index.push_back(static_cast<std::uint32_t>(i));
        }
      }
    }
    if (level.value_index.size() > first) {
      result.list = close_list(level);
    }
  }

  /// An inner list: every valid value with a non-empty subtree below.
  void expand_inner(std::size_t lvl, subtree& result) {
    level_memo& memo = memos_[lvl];
    const itp& param = *params_[lvl];
    const std::uint64_t range = param.range_size();
    dag_level& level = levels_[lvl];
    const std::size_t first = level.value_index.size();
    std::fill(memo.acc.begin(), memo.acc.end(), 0);

    // A child subtree that did not read this level is the memo hit of
    // every later sibling; it is reused (and booked as that hit) without
    // the lookup.
    memo_table<subtree>& child_memo = memos_[lvl + 1].subtrees;
    std::optional<subtree> shared;

    // Appends valid value i (already in the level's slot) and its subtree.
    auto take = [&](std::uint64_t i) {
      prefix_[lvl] = static_cast<std::uint32_t>(i);
      subtree child;
      if (shared) {
        child_memo.book_hit();
        child = *shared;
      } else {
        child = expand_level(lvl + 1);
        if (child_memo.on() && (child.reads >> lvl & 1) == 0) {
          shared = child;
        }
      }
      result.visited += child.visited;
      result.dead += child.dead;
      result.reads |= child.reads;
      watch_whole_prefix(lvl, result.reads);
      if (child.list == no_list) {
        ++result.dead;
        return;
      }
      check_id_space(level, 1);
      level.value_index.push_back(static_cast<std::uint32_t>(i));
      level.child.push_back(child.list);
      add_counts(memo.acc.data(), levels_[lvl + 1], child.list);
    };

    if (const std::optional<value_span> span = valid_values(lvl)) {
      result.reads |= span->reads;
      watch_whole_prefix(lvl, result.reads);
      for (std::size_t k = 0; k < span->count; ++k) {
        const std::uint32_t i = memo.value_arena[span->at + k];
        param.set_index(i);
        take(i);
      }
    } else if (recording()) {
      for (std::uint64_t i = 0; i < range; ++i) {
        const bool valid = check(lvl, i, result.reads);
        watch_whole_prefix(lvl, result.reads);
        if (valid) {
          take(i);
        }
      }
    } else {
      // Every memo is off: the plain loop. (Recording never turns back on,
      // so nothing above this subtree needs its reads.)
      counters_.checked_values += range;
      for (std::uint64_t i = 0; i < range; ++i) {
        if (param.set_and_check(i)) {
          take(i);
        }
      }
    }
    if (level.value_index.size() > first) {
      level.list_nodes.insert(level.list_nodes.end(), memo.acc.begin(),
                              memo.acc.end());
      result.list = close_list(level);
    }
  }

  /// The current prefix's valid values of level `lvl` from its value memo,
  /// filling the memo on a miss; none when the memo is off. The span stays
  /// valid until the level's next call (descending never touches it).
  std::optional<value_span> valid_values(std::size_t lvl) {
    level_memo& memo = memos_[lvl];
    if (!memo.values.on()) {
      if (memo.value_arena.capacity() != 0) {
        memo.value_arena = {};
      }
      return std::nullopt;
    }
    if (const value_span* hit = memo.values.find(prefix_.data())) {
      return *hit;
    }
    if (!memo.values.keep_after_miss()) {
      memo.value_arena = {};
      return std::nullopt;
    }
    value_span fresh{memo.value_arena.size(), 0, 0};
    const std::uint64_t range = params_[lvl]->range_size();
    for (std::uint64_t i = 0; i < range; ++i) {
      if (check(lvl, i, fresh.reads)) {
        memo.value_arena.push_back(static_cast<std::uint32_t>(i));
      }
    }
    fresh.count = memo.value_arena.size() - fresh.at;
    if (fresh.reads == (std::uint64_t{1} << lvl) - 1) {
      read_whole_prefix(memo.values, verdicts_.values_off[lvl]);
    } else {
      memo.values.insert(fresh.reads, prefix_.data(), fresh);
    }
    return fresh;
  }

  /// Closes the level's list of the entries appended since the last one.
  static std::uint32_t close_list(dag_level& level) {
    level.list_begin.push_back(
        static_cast<std::uint32_t>(level.value_index.size()));
    return static_cast<std::uint32_t>(level.list_begin.size() - 2);
  }

  /// Entry and list ids are 32-bit; the plain CSR loop has no such bound.
  static void check_id_space(const dag_level& level, std::uint64_t count) {
    if (level.value_index.size() + count >= no_list) {
      throw shared_suffix_unsupported{};
    }
  }

  /// Gives up on level `lvl`'s subtree memo as soon as the subtree's reads
  /// cover its whole prefix, before the subtree is finished.
  void watch_whole_prefix(std::size_t lvl, std::uint64_t reads) {
    const std::uint64_t whole = (std::uint64_t{1} << lvl) - 1;
    memo_table<subtree>& memo = memos_[lvl].subtrees;
    if (memo.on() && (reads & whole) == whole) {
      read_whole_prefix(memo, verdicts_.subtrees_off[lvl]);
    }
  }

  /// A key over the whole prefix can never come again. Unless the memo
  /// has had a hit (then the key is just not stored), it gives up, here
  /// and in every chunk of the group that starts later.
  template <class Payload>
  void read_whole_prefix(memo_table<Payload>& memo,
                         std::atomic<bool>& verdict) {
    if (memo.give_up_if_unused()) {
      verdict.store(true, std::memory_order_relaxed);
    }
  }

  /// Reads are recorded while any memo is on, so a forbidden read is
  /// caught before it can make sharing unsound.
  [[nodiscard]] bool recording() const noexcept { return live_memos_ != 0; }

  const std::vector<std::shared_ptr<itp>>& params_;
  memo_verdicts& verdicts_;
  std::size_t depth_;
  std::vector<const void*> states_;
  read_recorder recorder_;
  std::size_t live_memos_ = 0;  ///< memo tables still on
  std::vector<std::uint32_t> prefix_;  ///< value index per level
  std::vector<dag_level> levels_;
  std::vector<level_memo> memos_;
  std::vector<std::uint64_t> level_nodes_;  ///< logical, whole chunk
};

// ---------------------------------------------------------------------------
// The stored DAG: every chunk's levels behind the chunk table. Node ids are
// entry positions per level, offset by the entries of earlier chunks.

class dag_storage final : public table_storage {
public:
  dag_storage(chunk_table table, std::vector<std::vector<dag_level>> chunks)
      : table_storage(std::move(table)), chunks_(std::move(chunks)),
        entry_before_(table_.depth(),
                      std::vector<std::uint64_t>(chunks_.size() + 1, 0)) {
    for (std::size_t lvl = 0; lvl < table_.depth(); ++lvl) {
      for (std::size_t c = 0; c < chunks_.size(); ++c) {
        entry_before_[lvl][c + 1] =
            entry_before_[lvl][c] + chunks_[c][lvl].value_index.size();
      }
    }
  }

  [[nodiscard]] std::uint64_t stored_nodes() const noexcept override {
    std::uint64_t total = 0;
    for (const auto& before : entry_before_) {
      total += before.back();
    }
    return total;
  }
  [[nodiscard]] std::size_t memory_bytes() const noexcept override {
    std::size_t total = table_.memory_bytes();
    for (const auto& before : entry_before_) {
      total += before.capacity() * sizeof(std::uint64_t);
    }
    for (const std::vector<dag_level>& levels : chunks_) {
      for (const dag_level& level : levels) {
        total += level.memory_bytes();
      }
    }
    return total;
  }
  [[nodiscard]] std::unique_ptr<cursor> make_cursor() const override;

private:
  friend class dag_cursor;

  std::vector<std::vector<dag_level>> chunks_;  ///< root order
  /// [lvl][c]: stored level-lvl entries in chunks < c.
  std::vector<std::vector<std::uint64_t>> entry_before_;
};

class dag_cursor final : public space_storage::cursor {
public:
  explicit dag_cursor(const dag_storage& storage)
      : cursor(storage.table().depth()), storage_(storage),
        table_(storage.table()) {}

  [[nodiscard]] node_ref node(std::size_t lvl, std::uint64_t id) override {
    const std::size_t c = chunk_of(lvl, id);
    const std::vector<dag_level>& levels = storage_.chunks_[c];
    const std::uint64_t local = id - storage_.entry_before_[lvl][c];
    const std::uint32_t value = levels[lvl].value_index[local];
    if (lvl + 1 == depth_) {
      return {value, 0, 0, 1};
    }
    const std::uint32_t list = levels[lvl].child[local];
    const dag_level& next = levels[lvl + 1];
    return {value,
            storage_.entry_before_[lvl + 1][c] + next.list_begin[list],
            static_cast<std::uint32_t>(next.list_size(list)),
            next.list_leaves(list)};
  }

  [[nodiscard]] std::uint64_t root_scan_start(std::uint64_t& index) override {
    const auto& before = table_.leaf_before;
    const std::size_t c = chunk_table::owner(before, index);
    index -= before[c];
    return storage_.entry_before_[0][c];
  }

  [[nodiscard]] std::uint64_t leaves_before_root(
      std::uint64_t node) override {
    const std::size_t c = chunk_of(0, node);
    const std::uint64_t local_end = node - storage_.entry_before_[0][c];
    std::uint64_t leaves = table_.leaf_before[c];
    if (depth_ == 1) {
      return leaves + local_end;  // the roots are the leaves
    }
    const std::vector<dag_level>& levels = storage_.chunks_[c];
    for (std::uint64_t local = 0; local < local_end; ++local) {
      leaves += levels[1].list_leaves(levels[0].child[local]);
    }
    return leaves;
  }

  void value_indices(std::uint64_t index, std::uint32_t* out) override {
    // The owning chunk from the leaf prefix sums; consecutive decodes often
    // stay in one chunk.
    const auto& leaf_before = table_.leaf_before;
    if (index < leaf_before[leaf_chunk_] ||
        index >= leaf_before[leaf_chunk_ + 1]) {
      leaf_chunk_ = chunk_table::owner(leaf_before, index);
    }
    index -= leaf_before[leaf_chunk_];
    const dag_level* level = storage_.chunks_[leaf_chunk_].data();
    // Chunk-local entry positions; the chunk's roots are level 0's entries.
    std::uint64_t entry = 0;
    const std::size_t leaf = depth_ - 1;
    for (std::size_t lvl = 0; lvl < leaf; ++lvl, ++level) {
      const std::uint32_t* child = level->child.data();
      const dag_level& next = level[1];
      const std::uint32_t* list_begin = next.list_begin.data();
      const std::size_t stride = next.stride;
      // A list's leaves: its size at the leaf level, else its last count.
      const std::uint64_t* leaves_of =
          stride == 0 ? nullptr : next.list_nodes.data() + (stride - 1);
      const auto leaves = [&](std::uint32_t list) -> std::uint64_t {
        return leaves_of == nullptr ? list_begin[list + 1] - list_begin[list]
                                    : leaves_of[std::size_t{list} * stride];
      };
      const std::uint64_t first = entry;
      std::uint64_t here = leaves(child[entry]);
      while (index >= here) {
        index -= here;
        here = leaves(child[++entry]);
      }
      sibling_steps_ += lvl == 0 ? 0 : entry - first;
      out[lvl] = level->value_index[entry];
      entry = list_begin[child[entry]];
    }
    out[leaf] = level->value_index[entry + index];
  }

  void global_path(const std::uint64_t* ids, std::uint64_t* global) override {
    // A node's dense id counts the nodes of its level that come first in
    // depth-first order: those of the chunks before, plus, at every level
    // of the path, the earlier siblings and their subtrees.
    const std::size_t c = chunk_of(0, ids[0]);
    const std::vector<dag_level>& levels = storage_.chunks_[c];
    for (std::size_t lvl = 0; lvl < depth_; ++lvl) {
      global[lvl] = table_.node_before[lvl][c];
    }
    std::uint64_t first = 0;  // the first sibling of the path's node
    for (std::size_t lvl = 0; lvl < depth_; ++lvl) {
      const std::uint64_t local = ids[lvl] - storage_.entry_before_[lvl][c];
      global[lvl] += local - first;
      if (lvl + 1 == depth_) {
        break;
      }
      for (std::uint64_t sibling = first; sibling < local; ++sibling) {
        add_counts(global + lvl + 1, levels[lvl + 1],
                   levels[lvl].child[sibling]);
      }
      first = levels[lvl + 1].list_begin[levels[lvl].child[local]];
    }
  }

private:
  [[nodiscard]] std::size_t chunk_of(std::size_t lvl, std::uint64_t id) {
    // All nodes of one leaf's path live in one chunk: try the last one.
    const auto& before = storage_.entry_before_[lvl];
    if (id < before[last_chunk_] || id >= before[last_chunk_ + 1]) {
      last_chunk_ = chunk_table::owner(before, id);
    }
    return last_chunk_;
  }

  const dag_storage& storage_;
  const chunk_table& table_;
  std::size_t last_chunk_ = 0;  ///< chunk of the last node read
  std::size_t leaf_chunk_ = 0;  ///< chunk of the last leaf decoded
};

std::unique_ptr<space_storage::cursor> dag_storage::make_cursor() const {
  return std::make_unique<dag_cursor>(*this);
}

}  // namespace

std::unique_ptr<storage_builder> make_shared_suffix_builder(
    std::vector<std::shared_ptr<itp>> params) {
  auto verdicts = std::make_shared<memo_verdicts>(params.size());
  return builder_of(
      std::move(params),
      [verdicts](const std::vector<std::shared_ptr<itp>>& group) {
        return std::make_unique<shared_suffix_expansion>(group, *verdicts);
      },
      [](shared_suffix_expansion&& chunk) {
        return std::move(chunk).take_levels();
      },
      [](chunk_table table, std::vector<std::vector<dag_level>> chunks)
          -> std::shared_ptr<space_storage> {
        return std::make_shared<dag_storage>(std::move(table),
                                             std::move(chunks));
      });
}

}  // namespace atf::detail
