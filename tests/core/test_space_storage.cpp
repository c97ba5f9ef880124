// The storage behind space_tree (space_storage.hpp): the shared-suffix DAG
// that generation builds, and the plain loop's CSR levels it falls back to
// (reached here through detail::generate_plain, the test oracle). Both must
// be bit-identical through every public access path — values, paths,
// neighbor moves, applied slots — sequentially and under pooled generation,
// at the chunk table's edges.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "atf/common/rng.hpp"
#include "atf/common/thread_pool.hpp"
#include "atf/constraint.hpp"
#include "atf/search_space.hpp"
#include "atf/space_tree.hpp"
#include "atf/tp.hpp"

namespace {

/// How a tree is stored: the shared-suffix DAG (space_tree::generate) or
/// the plain loop's CSR levels (detail::generate_plain).
enum class form { dag, plain };

constexpr form kForms[] = {form::dag, form::plain};

const char* name_of(form f) { return f == form::dag ? "dag" : "plain"; }

atf::space_tree generate(const atf::tp_group& group, form f) {
  if (f == form::dag) {
    return atf::space_tree::generate(group);
  }
  return atf::detail::generate_plain({group}, atf::generation_mode::sequential)
      .group(0);
}

/// Pooled generation; the plain loop runs on a pool of the same width.
atf::space_tree generate(const atf::tp_group& group, form f,
                         atf::common::thread_pool& pool,
                         const atf::generation_policy& policy = {}) {
  if (f == form::dag) {
    return atf::space_tree::generate(group, pool, policy);
  }
  return atf::detail::generate_plain({group},
                                     atf::generation_mode::intra_group,
                                     pool.size(), policy)
      .group(0);
}

/// A constrained two-group-worthy tree: WPT in 1..32 dividing 32, LS in
/// 1..32 dividing WPT — the saxpy shape the space_tree tests already pin.
atf::tp_group make_constrained_group() {
  auto wpt =
      atf::tp("WPT", atf::interval<std::size_t>(1, 32), atf::divides(32));
  auto ls = atf::tp("LS", atf::interval<std::size_t>(1, 32),
                    atf::divides(wpt));
  return atf::G(wpt, ls);
}

void expect_identical(const atf::space_tree& dag,
                              const atf::space_tree& other,
                              const char* label) {
  ASSERT_EQ(other.size(), dag.size()) << label;
  ASSERT_EQ(other.depth(), dag.depth()) << label;
  EXPECT_EQ(other.node_count(), dag.node_count()) << label;

  // Every leaf: identical values and identical path (the global dense node
  // numbering is part of the storage contract).
  std::vector<std::uint64_t> expected_path(dag.depth());
  std::vector<std::uint64_t> actual_path(dag.depth());
  for (std::uint64_t index = 0; index < dag.size(); ++index) {
    ASSERT_EQ(other.values_at(index), dag.values_at(index))
        << label << " at leaf " << index;
    dag.path_of(index, expected_path.data());
    other.path_of(index, actual_path.data());
    ASSERT_EQ(actual_path, expected_path) << label << " at leaf " << index;
  }

  // Identically seeded neighbor walks consume the same RNG stream and must
  // visit the same leaves.
  atf::common::xoshiro256 rng_dag(0xabcd);
  atf::common::xoshiro256 rng_other(0xabcd);
  std::uint64_t at_dag = 0;
  std::uint64_t at_other = 0;
  for (int step = 0; step < 200; ++step) {
    at_dag = dag.random_neighbor(at_dag, rng_dag);
    at_other = other.random_neighbor(at_other, rng_other);
    ASSERT_EQ(at_other, at_dag) << label << " at step " << step;
  }
}

TEST(SpaceStorage, PlainLoopMatchesDagOnConstrainedTree) {
  const auto group = make_constrained_group();
  const auto dag = atf::space_tree::generate(group);
  expect_identical(dag, generate(group, form::plain), "plain");
}

TEST(SpaceStorage, BothFormsMatchUnderPooledGeneration) {
  const auto group = make_constrained_group();
  const auto dag = atf::space_tree::generate(group);
  atf::common::thread_pool pool(2);
  for (const form f : kForms) {
    expect_identical(dag, generate(group, f, pool), name_of(f));
  }
}

TEST(SpaceStorage, ApplyWritesValuesToSlots) {
  auto wpt =
      atf::tp("WPT", atf::interval<std::size_t>(1, 32), atf::divides(32));
  auto ls = atf::tp("LS", atf::interval<std::size_t>(1, 32),
                    atf::divides(wpt));
  const auto group = atf::G(wpt, ls);
  for (const form f : kForms) {
    const auto tree = generate(group, f);
    for (std::uint64_t index = 0; index < tree.size(); ++index) {
      const auto values = tree.values_at(index);
      tree.apply(index);
      EXPECT_EQ(wpt.eval(), atf::from_tp_value<std::size_t>(values[0]))
          << name_of(f) << " " << index;
      EXPECT_EQ(ls.eval(), atf::from_tp_value<std::size_t>(values[1]))
          << name_of(f) << " " << index;
    }
  }
}

TEST(SpaceStorage, ChunkStatsReportBytes) {
  const auto group = make_constrained_group();
  const auto dag = atf::space_tree::generate(group);
  ASSERT_FALSE(dag.stats().per_chunk.empty());
  std::uint64_t total = 0;
  for (const auto& chunk : dag.stats().per_chunk) {
    // 24 B per inner node; a leaf (one per configuration) stores only its
    // 4 B value index.
    EXPECT_EQ(chunk.bytes, (chunk.nodes - chunk.leaves) * 24u +
                               chunk.leaves * 4u);
    total += chunk.bytes;
  }
  EXPECT_GT(total, 0u);
  EXPECT_GT(dag.stats().bytes, 0u);
}

TEST(SpaceStorage, OutOfRangeLeavesThrowInBothForms) {
  const auto group = make_constrained_group();
  for (const form f : kForms) {
    const auto tree = generate(group, f);
    ASSERT_GT(tree.size(), 0u) << name_of(f);
    const auto cursor = tree.make_cursor();
    ASSERT_NE(cursor, nullptr) << name_of(f);
    std::vector<std::uint64_t> path(tree.depth());
    std::vector<std::uint32_t> indices(tree.depth());
    const std::uint64_t last = tree.size() - 1;
    EXPECT_NO_THROW((void)tree.values_at(last)) << name_of(f);
    EXPECT_NO_THROW(tree.path_of(last, path.data())) << name_of(f);
    EXPECT_THROW((void)tree.values_at(last + 1), std::out_of_range)
        << name_of(f);
    EXPECT_THROW(tree.path_of(last + 1, path.data()), std::out_of_range)
        << name_of(f);
    EXPECT_THROW(tree.apply(last + 1), std::out_of_range) << name_of(f);
    EXPECT_THROW(tree.value_indices(*cursor, last + 1, indices.data()),
                 std::out_of_range)
        << name_of(f);
  }
}

TEST(SpaceStorage, DagHoldsFewerBytesThanThePlainLoop) {
  // chain_tuning_smoke's shape: unconstrained A and D around a divides
  // chain, so every subtree depends only on its parent's value.
  auto a = atf::tp("A", atf::interval<std::size_t>(1, 8));
  auto b = atf::tp("B", atf::interval<std::size_t>(1, 64),
                   atf::divides(std::size_t{64}));
  auto c = atf::tp("C", atf::interval<std::size_t>(1, 64),
                   atf::divides(64 / b));
  auto d = atf::tp("D", atf::interval<std::size_t>(1, 16));
  const auto group = atf::G(a, b, c, d);
  const auto dag = generate(group, form::dag);
  const auto plain = generate(group, form::plain);
  for (const form f : kForms) {
    const auto& tree = f == form::dag ? dag : plain;
    EXPECT_EQ(tree.stats().bytes, tree.memory_bytes()) << name_of(f);
  }
  // The per-chunk CSR figure is what the plain loop's levels hold; their
  // capacity may exceed it, never fall short of it.
  std::uint64_t csr_bytes = 0;
  for (const auto& chunk : plain.stats().per_chunk) {
    csr_bytes += chunk.bytes;
  }
  EXPECT_GE(plain.memory_bytes(), csr_bytes);
  EXPECT_LT(10 * dag.memory_bytes(), plain.memory_bytes());
}

// The chunk table at its edges: each test compares both forms, generated
// on a pool, against the sequential DAG.

TEST(SpaceStorage, DepthOneGroupUnderPooledGeneration) {
  // The root level is the leaf level: it stores value indices only, with no
  // leaf_count array for root scans to read.
  auto a = atf::tp("A", atf::interval<std::size_t>(1, 200),
                   atf::pred([](std::size_t v) { return v % 3 != 0; }));
  const auto group = atf::G(a);
  const auto dag = atf::space_tree::generate(group);
  atf::common::thread_pool pool(3);
  for (const form f : kForms) {
    const auto tree = generate(group, f, pool);
    EXPECT_GE(tree.stats().chunks, 2u) << name_of(f);
    expect_identical(dag, tree, name_of(f));
  }
}

TEST(SpaceStorage, ChunksWithoutLeavesAreDropped) {
  // Only the ten powers of two survive A's constraint, so most root spans
  // die whole; the aggressive policy re-splits even when nobody starves.
  constexpr std::size_t n = 512;
  auto a = atf::tp("A", atf::interval<std::size_t>(1, n), atf::divides(n));
  auto b = atf::tp("B", atf::interval<std::size_t>(1, n), atf::divides(n / a));
  auto c = atf::tp("C", atf::interval<std::size_t>(1, n), atf::divides(b));
  const auto group = atf::G(a, b, c);
  const auto dag = atf::space_tree::generate(group);
  atf::generation_policy aggressive;
  aggressive.min_split_visited = 16;
  aggressive.split_only_when_starving = false;
  atf::common::thread_pool pool(3);
  for (const form f : kForms) {
    const auto tree = generate(group, f, pool, aggressive);
    EXPECT_GE(tree.stats().resplits, 1u) << name_of(f);
    std::size_t empty = 0;
    for (const auto& chunk : tree.stats().per_chunk) {
      empty += chunk.leaves == 0 ? 1 : 0;
    }
    EXPECT_GE(empty, 1u) << name_of(f);
    expect_identical(dag, tree, name_of(f));
  }
}

TEST(SpaceStorage, RootNeighborMovesCrossChunkBoundaries) {
  auto a = atf::tp("A", atf::interval<std::size_t>(1, 64));
  auto b = atf::tp("B", atf::interval<std::size_t>(1, 8), atf::divides(a));
  const auto group = atf::G(a, b);
  const auto dag = atf::space_tree::generate(group);
  // The fixed pre-partition makes the chunk spans deterministic: 16 chunks
  // of 4 root values.
  atf::generation_policy fixed;
  fixed.adaptive = false;
  atf::common::thread_pool pool(3);
  const auto chunks =
      atf::space_tree::generate(group, pool, fixed).stats().per_chunk;
  ASSERT_GE(chunks.size(), 2u);
  const auto chunk_of_root = [&](std::uint64_t leaf) {
    const auto root =
        atf::from_tp_value<std::size_t>(dag.values_at(leaf)[0]) - 1;
    std::size_t c = 0;
    while (root >= chunks[c].root_hi) {
      ++c;
    }
    return c;
  };
  for (const form f : kForms) {
    const auto tree = generate(group, f, pool, fixed);
    std::size_t crossings = 0;
    for (std::uint64_t index = 0; index < dag.size(); ++index) {
      atf::common::xoshiro256 rng_dag(index);
      atf::common::xoshiro256 rng_other(index);
      const std::uint64_t expected = dag.random_neighbor(index, rng_dag);
      ASSERT_EQ(tree.random_neighbor(index, rng_other), expected)
          << name_of(f) << " from leaf " << index;
      crossings += chunk_of_root(expected) != chunk_of_root(index) ? 1 : 0;
    }
    EXPECT_GT(crossings, 0u) << name_of(f);
  }
}

TEST(SpaceStorage, EmptyGroupWorksInBothForms) {
  for (const form f : kForms) {
    const auto tree = generate(atf::tp_group{}, f);
    EXPECT_EQ(tree.size(), 1u) << name_of(f);
    EXPECT_EQ(tree.depth(), 0u);
    EXPECT_EQ(tree.node_count(), 0u);
    EXPECT_TRUE(tree.values_at(0).empty());
    tree.apply(0);
  }
}

TEST(SpaceStorage, EmptySpaceWorksInBothForms) {
  // 7 is prime, so no value in 2..3 divides it: the space is empty.
  for (const form f : kForms) {
    auto a = atf::tp("A", atf::set<std::size_t>({7}));
    auto b = atf::tp("B", atf::interval<std::size_t>(2, 3), atf::divides(a));
    const auto tree = generate(atf::G(a, b), f);
    EXPECT_EQ(tree.size(), 0u) << name_of(f);
    EXPECT_THROW((void)tree.values_at(0), std::out_of_range);
  }
}

TEST(SpaceStorage, SingleValueTreeWorksInBothForms) {
  for (const form f : kForms) {
    auto a = atf::tp("A", atf::set<std::size_t>({5}));
    const auto tree = generate(atf::G(a), f);
    ASSERT_EQ(tree.size(), 1u) << name_of(f);
    EXPECT_EQ(tree.values_at(0).size(), 1u);
    atf::common::xoshiro256 rng(1);
    EXPECT_EQ(tree.random_neighbor(0, rng), 0u);
  }
}

// value_indices through one reused cursor, against an enumeration that does
// not use the tree: A in 1..24, B in 1..24 dividing A, C in 1..8 dividing
// B, optionally with a D in 1..3 that B's constraint reads (a read after its
// own level, which turns the DAG off: the CSR fallback).

struct enumerated_leaf {
  std::vector<std::uint32_t> value_indices;
  std::uint64_t sibling_steps = 0;  ///< sibling ordinals below the root
};

std::vector<enumerated_leaf> enumerate_chain(bool with_d) {
  std::vector<enumerated_leaf> leaves;
  for (std::uint32_t a = 1; a <= 24; ++a) {
    std::uint64_t b_ordinal = 0;
    for (std::uint32_t b = 1; b <= 24; ++b) {
      if (a % b != 0) {
        continue;
      }
      std::uint64_t c_ordinal = 0;
      for (std::uint32_t c = 1; c <= 8; ++c) {
        if (b % c != 0) {
          continue;
        }
        if (!with_d) {
          leaves.push_back({{a - 1, b - 1, c - 1}, b_ordinal});
        } else {
          for (std::uint32_t d = 1; d <= 3; ++d) {
            leaves.push_back({{a - 1, b - 1, c - 1, d - 1},
                              b_ordinal + c_ordinal});
          }
        }
        ++c_ordinal;
      }
      ++b_ordinal;
    }
  }
  return leaves;
}

atf::tp_group make_chain_group(bool with_d) {
  auto a = atf::tp("A", atf::interval<std::size_t>(1, 24));
  auto d = atf::tp("D", atf::interval<std::size_t>(1, 3));
  auto b = atf::tp("B", atf::interval<std::size_t>(1, 24),
                   atf::pred([a, d, with_d](std::size_t v) {
                     return a.eval() % v == 0 &&
                            (!with_d || v % 2 == 0 || d.eval() < 1000);
                   }));
  auto c = atf::tp("C", atf::interval<std::size_t>(1, 8), atf::divides(b));
  return with_d ? atf::G(a, b, c, d) : atf::G(a, b, c);
}

void expect_value_indices(const atf::space_tree& tree,
                          const std::vector<enumerated_leaf>& expected,
                          const std::string& label) {
  ASSERT_EQ(tree.size(), expected.size()) << label;
  const auto cursor = tree.make_cursor();
  ASSERT_NE(cursor, nullptr);
  std::vector<std::uint32_t> got(tree.depth());
  // Every leaf in order, then in reverse, through the one cursor.
  std::uint64_t steps = 0;
  for (std::uint64_t index = 0; index < tree.size(); ++index) {
    tree.value_indices(*cursor, index, got.data());
    ASSERT_EQ(got, expected[index].value_indices) << label << " leaf " << index;
    steps += expected[index].sibling_steps;
    const std::vector<atf::tp_value> values = tree.values_at(index);
    for (std::size_t lvl = 0; lvl < tree.depth(); ++lvl) {
      ASSERT_EQ(atf::from_tp_value<std::size_t>(values[lvl]),
                expected[index].value_indices[lvl] + 1u)
          << label << " leaf " << index;
    }
  }
  for (std::uint64_t index = tree.size(); index-- > 0;) {
    tree.value_indices(*cursor, index, got.data());
    ASSERT_EQ(got, expected[index].value_indices) << label << " leaf " << index;
    steps += expected[index].sibling_steps;
  }
  // Random leaves: consecutive decodes land in different chunks.
  atf::common::xoshiro256 rng(0xc0ffee);
  for (int draw = 0; draw < 2000; ++draw) {
    const std::uint64_t index = tree.random_index(rng);
    tree.value_indices(*cursor, index, got.data());
    ASSERT_EQ(got, expected[index].value_indices) << label << " leaf " << index;
    steps += expected[index].sibling_steps;
  }
  EXPECT_EQ(cursor->sibling_steps(), steps) << label;
  EXPECT_THROW(tree.value_indices(*cursor, tree.size(), got.data()),
               std::out_of_range);
}

TEST(SpaceStorage, ValueIndicesThroughOneCursorMatchTheEnumeration) {
  atf::common::thread_pool pool(3);
  atf::generation_policy eager;  // many small chunks, re-split freely
  eager.min_split_visited = 8;
  eager.split_only_when_starving = false;
  for (const bool with_d : {false, true}) {
    const auto group = make_chain_group(with_d);
    const std::vector<enumerated_leaf> expected = enumerate_chain(with_d);
    const std::string shape = with_d ? "csr fallback" : "dag";
    const auto dag = atf::space_tree::generate(group);
    // The DAG shares C's lists across B; the fallback stores every node.
    if (with_d) {
      EXPECT_EQ(dag.stats().stored_nodes, dag.node_count());
    } else {
      EXPECT_LT(dag.stats().stored_nodes, dag.node_count());
    }
    expect_value_indices(dag, expected, shape + " dag");
    expect_value_indices(generate(group, form::plain), expected,
                         shape + " plain");
    for (const form f : kForms) {
      const auto chunked = generate(group, f, pool, eager);
      EXPECT_GE(chunked.stats().chunks, 4u);
      expect_value_indices(chunked, expected,
                           shape + " chunked " + name_of(f));
    }
  }
}

TEST(SpaceStorage, ChunkStatsAddUpToTheTreeInBothForms) {
  // The per-chunk accounting tiles the root range in order and sums to the
  // tree's totals, however the scheduler split it.
  atf::common::thread_pool pool(3);
  atf::generation_policy eager;
  eager.min_split_visited = 8;
  eager.split_only_when_starving = false;
  const auto group = make_chain_group(/*with_d=*/false);
  for (const form f : kForms) {
    const auto tree = generate(group, f, pool, eager);
    const auto& stats = tree.stats();
    ASSERT_EQ(stats.per_chunk.size(), stats.chunks) << name_of(f);
    ASSERT_GE(stats.chunks, 4u) << name_of(f);
    EXPECT_EQ(stats.per_chunk.front().root_lo, 0u) << name_of(f);
    EXPECT_EQ(stats.per_chunk.back().root_hi, tree.range_size(0))
        << name_of(f);
    std::uint64_t leaves = 0;
    std::uint64_t nodes = 0;
    std::uint64_t visited = 0;
    std::uint64_t checked = 0;
    for (std::size_t i = 0; i < stats.per_chunk.size(); ++i) {
      const auto& chunk = stats.per_chunk[i];
      EXPECT_LT(chunk.root_lo, chunk.root_hi) << name_of(f) << " " << i;
      if (i > 0) {
        EXPECT_EQ(chunk.root_lo, stats.per_chunk[i - 1].root_hi)
            << name_of(f) << " " << i;
      }
      leaves += chunk.leaves;
      nodes += chunk.nodes;
      visited += chunk.visited_values;
      checked += chunk.checked_values;
    }
    EXPECT_EQ(leaves, tree.size()) << name_of(f);
    EXPECT_EQ(nodes, tree.node_count()) << name_of(f);
    EXPECT_EQ(visited, stats.visited_values) << name_of(f);
    EXPECT_EQ(checked, stats.checked_values) << name_of(f);
  }
}

}  // namespace
