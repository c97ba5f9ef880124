// Shared-suffix generation (DESIGN.md §7, §11): the space is stored as a
// DAG in which a subtree is reused for every prefix that agrees on the
// values the subtree read. These tests pin that the reuse is sound —
// value-dependent read sets, opaque expressions, groups with nothing to
// share, reads outside the purity contract — by comparing the DAG leaf by
// leaf against the plain loop (detail::generate_plain): values, path_of's
// global numbering and a 500-step random_neighbor walk.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "atf/common/rng.hpp"
#include "atf/common/thread_pool.hpp"
#include "atf/constraint.hpp"
#include "atf/expression.hpp"
#include "atf/search_space.hpp"
#include "atf/space_storage.hpp"
#include "atf/space_tree.hpp"
#include "atf/tp.hpp"

namespace {

using atf::space_tree;

void expect_same_tree(const space_tree& expected, const space_tree& actual,
                      const std::string& label) {
  ASSERT_EQ(actual.size(), expected.size()) << label;
  ASSERT_EQ(actual.depth(), expected.depth()) << label;
  EXPECT_EQ(actual.node_count(), expected.node_count()) << label;
  std::vector<std::uint64_t> expected_path(expected.depth());
  std::vector<std::uint64_t> actual_path(expected.depth());
  for (std::uint64_t index = 0; index < expected.size(); ++index) {
    ASSERT_EQ(actual.values_at(index), expected.values_at(index))
        << label << " at leaf " << index;
    expected.path_of(index, expected_path.data());
    actual.path_of(index, actual_path.data());
    ASSERT_EQ(actual_path, expected_path) << label << " at leaf " << index;
  }
  if (expected.size() == 0) {
    return;
  }
  atf::common::xoshiro256 rng_expected(0x5eed);
  atf::common::xoshiro256 rng_actual(0x5eed);
  std::uint64_t at_expected = expected.random_index(rng_expected);
  std::uint64_t at_actual = actual.random_index(rng_actual);
  for (int step = 0; step < 500; ++step) {
    at_expected = expected.random_neighbor(at_expected, rng_expected);
    at_actual = actual.random_neighbor(at_actual, rng_actual);
    ASSERT_EQ(at_actual, at_expected) << label << " at step " << step;
  }
}

/// Generates `group` as the DAG and with the plain loop, each sequentially
/// and pooled, checks both DAG variants against both plain-loop variants
/// and the logical stats across all of them, and returns the sequential
/// DAG.
space_tree check_against_plain_loop(const atf::tp_group& group) {
  constexpr std::size_t threads = 3;
  atf::common::thread_pool pool(threads);
  atf::generation_policy eager;  // many small chunks, re-split freely
  eager.min_split_visited = 8;
  eager.split_only_when_starving = false;
  auto dag = space_tree::generate(group);
  const auto dag_pooled = space_tree::generate(group, pool, eager);
  const auto plain =
      atf::detail::generate_plain({group}, atf::generation_mode::sequential)
          .group(0);
  const auto plain_pooled =
      atf::detail::generate_plain({group}, atf::generation_mode::intra_group,
                                  threads, eager)
          .group(0);

  expect_same_tree(plain, dag, "dag vs plain");
  expect_same_tree(plain_pooled, dag, "dag vs pooled plain");
  expect_same_tree(plain, dag_pooled, "pooled dag vs plain");
  expect_same_tree(plain_pooled, dag_pooled, "pooled dag vs pooled plain");

  // visited_values and dead_prefixes are logical: a memo hit adds the
  // counts stored with it, so both forms and every schedule agree.
  for (const space_tree* tree : {&dag_pooled, &plain, &plain_pooled}) {
    EXPECT_EQ(tree->stats().visited_values, dag.stats().visited_values);
    EXPECT_EQ(tree->stats().dead_prefixes, dag.stats().dead_prefixes);
    EXPECT_EQ(tree->stats().nodes, dag.node_count());
  }
  EXPECT_LE(dag.stats().checked_values, dag.stats().visited_values);
  EXPECT_LE(dag_pooled.stats().checked_values,
            dag_pooled.stats().visited_values);
  for (const space_tree* tree : {&plain, &plain_pooled}) {
    EXPECT_EQ(tree->stats().checked_values, tree->stats().visited_values);
    EXPECT_EQ(tree->stats().stored_nodes, tree->node_count());
  }
  EXPECT_GT(plain_pooled.stats().chunks, 1u);
  EXPECT_LE(dag.stats().stored_nodes, dag.node_count());
  EXPECT_LE(dag_pooled.stats().stored_nodes, dag_pooled.node_count());
  return dag;
}

TEST(SharedSuffix, ReadSetDependsOnValues) {
  // C reads B only once A > 6 (the ternary's other arm), so C's subtree
  // is shared across B for small A and keyed by (A, B) for large A. D's
  // short circuit reads C only for candidates other than 1.
  auto a = atf::tp("A", atf::interval<std::size_t>(1, 12));
  auto b = atf::tp("B", atf::interval<std::size_t>(1, 12));
  auto c = atf::tp("C", atf::interval<std::size_t>(1, 24),
                   atf::pred([a, b](std::size_t v) {
                     return a.eval() <= 6 ? v % a.eval() == 0
                                          : v <= b.eval() + 3;
                   }));
  auto d = atf::tp("D", atf::interval<std::size_t>(1, 24),
                   atf::pred([c](std::size_t v) {
                     return v == 1 || c.eval() % v == 0;
                   }));
  const auto dag = check_against_plain_loop(atf::G(a, b, c, d));
  EXPECT_GT(dag.size(), 0u);
  EXPECT_LT(dag.stats().stored_nodes, dag.node_count());
}

TEST(SharedSuffix, OpaqueExpressionReads) {
  // NDIMCD-style: the prefix is read inside an atf::expr lambda the
  // generator cannot see into; the reads still reach the recorder.
  auto wg = atf::tp("WG", atf::interval<std::size_t>(1, 32),
                    atf::divides(std::size_t{32}));
  auto x = atf::tp("X", atf::interval<std::size_t>(1, 32), atf::divides(wg));
  auto y = atf::tp(
      "Y", atf::interval<std::size_t>(1, 32),
      atf::divides(wg) && atf::less_equal(atf::expr<std::size_t>([x] {
        return 32 / std::max<std::size_t>(x.eval(), 1);
      })));
  auto k = atf::tp("K", atf::interval<std::size_t>(1, 32), atf::divides(wg));
  auto v = atf::tp("V", atf::set<std::size_t>({1, 2, 4, 8}),
                   atf::divides(wg / x));
  const auto dag = check_against_plain_loop(atf::G(wg, x, y, k, v));
  // V's list is shared across every K (and every Y) value.
  EXPECT_LT(2 * dag.stats().stored_nodes, dag.node_count());
  EXPECT_LT(dag.stats().checked_values, dag.stats().visited_values);
}

TEST(SharedSuffix, AdversarialGroupSharesNothing) {
  // Every constraint mixes the candidate with the whole prefix, so every
  // subtree's key is its whole prefix: nothing can be reused, and the
  // generator must settle on the plain loop.
  std::vector<atf::tp<std::size_t>> params;
  atf::tp_group group;
  for (std::size_t lvl = 0; lvl < 4; ++lvl) {
    const std::vector<atf::tp<std::size_t>> prefix = params;
    params.push_back(atf::tp(std::string(1, static_cast<char>('A' + lvl)),
                             atf::interval<std::size_t>(1, 9),
                             atf::pred([prefix](std::size_t v) {
                               std::size_t mix = v;
                               for (std::size_t j = 0; j < prefix.size(); ++j) {
                                 mix += prefix[j].eval() * (2 * j + 3);
                               }
                               return mix % 3 != 0;
                             })));
    group.add(params.back());
  }
  const auto dag = check_against_plain_loop(group);
  EXPECT_EQ(dag.stats().stored_nodes, dag.node_count());
  EXPECT_EQ(dag.stats().checked_values, dag.stats().visited_values);
}

TEST(SharedSuffix, DividesChainStoresFarFewerEntriesThanNodes) {
  // chain_tuning_smoke's shape: unconstrained A and D around a skewed
  // divides-chain. Every subtree depends only on its parent's value.
  auto a = atf::tp("A", atf::interval<std::size_t>(1, 8));
  auto b = atf::tp("B", atf::interval<std::size_t>(1, 64),
                   atf::divides(std::size_t{64}));
  auto c = atf::tp("C", atf::interval<std::size_t>(1, 64),
                   atf::divides(64 / b));
  auto d = atf::tp("D", atf::interval<std::size_t>(1, 16));
  const auto dag = check_against_plain_loop(atf::G(a, b, c, d));
  EXPECT_EQ(dag.size(), 8u * 28u * 16u);
  EXPECT_LT(20 * dag.stats().stored_nodes, dag.node_count());
}

// A, B, C where C ignores B, so C's subtree could be shared across B, and
// B's constraint also reads `extra` for odd candidates: a read that never
// changes its result, so the space is well defined wherever `extra` lives.

atf::tp<std::size_t> b_reading(const atf::tp<std::size_t>& extra) {
  return atf::tp("B", atf::interval<std::size_t>(1, 16),
                 atf::pred([extra](std::size_t v) {
                   return v % 2 == 0 || extra.eval() < 1000;
                 }));
}

TEST(SharedSuffix, InContractReadShares) {
  auto a = atf::tp("A", atf::interval<std::size_t>(1, 16));
  auto c = atf::tp("C", atf::interval<std::size_t>(1, 16), atf::divides(a));
  const auto dag = check_against_plain_loop(atf::G(a, b_reading(a), c));
  EXPECT_LT(dag.stats().stored_nodes, dag.node_count());
}

TEST(SharedSuffix, ReadingALaterLevelTurnsSharingOff) {
  auto a = atf::tp("A", atf::interval<std::size_t>(1, 16));
  auto c = atf::tp("C", atf::interval<std::size_t>(1, 16), atf::divides(a));
  auto later = atf::tp("D", atf::interval<std::size_t>(1, 4));
  const auto dag =
      check_against_plain_loop(atf::G(a, b_reading(later), c, later));
  EXPECT_EQ(dag.stats().stored_nodes, dag.node_count());
  EXPECT_EQ(dag.stats().checked_values, dag.stats().visited_values);
}

TEST(SharedSuffix, ReadingAHandleOutsideTheGroupTurnsSharingOff) {
  auto a = atf::tp("A", atf::interval<std::size_t>(1, 16));
  auto c = atf::tp("C", atf::interval<std::size_t>(1, 16), atf::divides(a));
  auto outside = atf::tp("OUT", atf::interval<std::size_t>(1, 4));
  const auto dag =
      check_against_plain_loop(atf::G(a, b_reading(outside), c));
  EXPECT_EQ(dag.stats().stored_nodes, dag.node_count());
  EXPECT_EQ(dag.stats().checked_values, dag.stats().visited_values);
}

// Read sets are 64-bit masks over levels, so a group deeper than
// max_shared_suffix_depth is generated with the plain loop. A chain of
// `depth` levels: L0 in 1..8, then each level in {1, 2} dividing the one
// before it, so every subtree depends only on its parent's value.

atf::tp_group make_deep_chain(std::size_t depth) {
  atf::tp_group group;
  auto prev = atf::tp("L0", atf::interval<std::size_t>(1, 8));
  group.add(prev);
  for (std::size_t lvl = 1; lvl < depth; ++lvl) {
    auto next = atf::tp("L" + std::to_string(lvl),
                        atf::interval<std::size_t>(1, 2), atf::divides(prev));
    group.add(next);
    prev = next;
  }
  return group;
}

TEST(SharedSuffix, SixtyFourLevelChainShares) {
  const std::size_t depth = atf::detail::max_shared_suffix_depth;
  const auto dag = check_against_plain_loop(make_deep_chain(depth));
  ASSERT_EQ(dag.depth(), depth);
  // Odd roots allow only 1 below them; even roots a run of 2s, then 1s.
  EXPECT_EQ(dag.size(), 4u * 1u + 4u * depth);
  EXPECT_LT(4 * dag.stats().stored_nodes, dag.node_count());
  EXPECT_LT(dag.stats().checked_values, dag.stats().visited_values);
}

TEST(SharedSuffix, SixtyFiveLevelChainFallsBackToThePlainLoop) {
  const std::size_t depth = atf::detail::max_shared_suffix_depth + 1;
  const auto dag = check_against_plain_loop(make_deep_chain(depth));
  ASSERT_EQ(dag.depth(), depth);
  EXPECT_EQ(dag.size(), 4u * 1u + 4u * depth);
  EXPECT_EQ(dag.stats().stored_nodes, dag.node_count());
  EXPECT_EQ(dag.stats().checked_values, dag.stats().visited_values);
}

}  // namespace
