// Multi-group search-space tests: cross-group product, parallel generation
// determinism, configuration materialization, neighbor moves, and the
// plain-loop oracle (detail::generate_plain) across groups.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <string>
#include <vector>

#include "atf/common/rng.hpp"
#include "atf/constraint.hpp"
#include "atf/search_space.hpp"
#include "atf/tp.hpp"

namespace {

using atf::search_space;

std::vector<atf::tp_group> two_groups() {
  // The paper's Figure 1 example: tp1/tp2 form one group, tp3/tp4 another.
  auto tp1 = atf::tp("tp1", atf::set<std::size_t>({1, 2}));
  auto tp2 =
      atf::tp("tp2", atf::set<std::size_t>({1, 2}), atf::divides(tp1));
  auto tp3 = atf::tp("tp3", atf::set<std::size_t>({1, 2}));
  auto tp4 =
      atf::tp("tp4", atf::set<std::size_t>({1, 2}), atf::divides(tp3));
  return {atf::G(tp1, tp2), atf::G(tp3, tp4)};
}

TEST(SearchSpace, Figure1Example) {
  // Group space: (tp1=1,tp2=1), (tp1=2,tp2=1), (tp1=2,tp2=2) -> 3 configs;
  // two independent identical groups -> 9 total.
  const auto space = search_space::generate(two_groups());
  EXPECT_EQ(space.num_groups(), 2u);
  EXPECT_EQ(space.group(0).size(), 3u);
  EXPECT_EQ(space.group(1).size(), 3u);
  EXPECT_EQ(space.size(), 9u);
  EXPECT_EQ(space.num_parameters(), 4u);
}

TEST(SearchSpace, ParameterNamesInDeclarationOrder) {
  const auto space = search_space::generate(two_groups());
  EXPECT_EQ(space.parameter_names(),
            (std::vector<std::string>{"tp1", "tp2", "tp3", "tp4"}));
}

TEST(SearchSpace, ConfigAtEnumeratesTheFullProduct) {
  const auto space = search_space::generate(two_groups());
  std::set<std::string> seen;
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    const auto config = space.config_at(i);
    EXPECT_EQ(config.size(), 4u);
    EXPECT_EQ(config.space_index(), i);
    // every configuration is valid
    const std::size_t v1 = config["tp1"];
    const std::size_t v2 = config["tp2"];
    const std::size_t v3 = config["tp3"];
    const std::size_t v4 = config["tp4"];
    EXPECT_EQ(v1 % v2, 0u);
    EXPECT_EQ(v3 % v4, 0u);
    seen.insert(config.to_string());
  }
  EXPECT_EQ(seen.size(), 9u);
}

TEST(SearchSpace, ParallelAndSequentialGenerationAgree) {
  const auto parallel = search_space::generate(two_groups(), true);
  const auto sequential = search_space::generate(two_groups(), false);
  ASSERT_EQ(parallel.size(), sequential.size());
  for (std::uint64_t i = 0; i < parallel.size(); ++i) {
    EXPECT_EQ(parallel.config_at(i).to_string(),
              sequential.config_at(i).to_string());
  }
}

TEST(SearchSpace, EmptyGroupListYieldsEmptySpace) {
  const auto space = search_space::generate({});
  EXPECT_TRUE(space.empty());
}

TEST(SearchSpace, EmptyGroupSpacePropagates) {
  auto a = atf::tp("A", atf::set(3, 5), atf::is_multiple_of(2));
  const auto space = search_space::generate({atf::G(a)});
  EXPECT_TRUE(space.empty());
  EXPECT_EQ(space.size(), 0u);
}

TEST(SearchSpace, ConfigAtOutOfRangeThrows) {
  const auto space = search_space::generate(two_groups());
  EXPECT_THROW((void)space.config_at(space.size()), std::out_of_range);
}

TEST(SearchSpace, NeighborStaysInsideSpaceAndDiffers) {
  const auto space = search_space::generate(two_groups());
  atf::common::xoshiro256 rng(5);
  for (int i = 0; i < 300; ++i) {
    const auto index = space.random_index(rng);
    const auto neighbor = space.random_neighbor(index, rng);
    EXPECT_LT(neighbor, space.size());
    EXPECT_NE(neighbor, index);
  }
}

TEST(SearchSpace, NeighborChangesExactlyOneGroup) {
  const auto space = search_space::generate(two_groups());
  atf::common::xoshiro256 rng(11);
  for (int i = 0; i < 200; ++i) {
    const auto index = space.random_index(rng);
    const auto neighbor = space.random_neighbor(index, rng);
    const auto a = space.config_at(index);
    const auto b = space.config_at(neighbor);
    const bool group0_changed = std::size_t(a["tp1"]) != std::size_t(b["tp1"]) ||
                                std::size_t(a["tp2"]) != std::size_t(b["tp2"]);
    const bool group1_changed = std::size_t(a["tp3"]) != std::size_t(b["tp3"]) ||
                                std::size_t(a["tp4"]) != std::size_t(b["tp4"]);
    EXPECT_TRUE(group0_changed != group1_changed)
        << "neighbor must change exactly one group";
  }
}

TEST(SearchSpace, ApplyReplaysValuesIntoSharedSlots) {
  auto tp1 = atf::tp("tp1", atf::set<std::size_t>({1, 2}));
  auto tp2 = atf::tp("tp2", atf::set<std::size_t>({1, 2}), atf::divides(tp1));
  auto tp3 = atf::tp("tp3", atf::set<std::size_t>({3, 4}));
  const auto space =
      search_space::generate({atf::G(tp1, tp2), atf::G(tp3)});
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    space.apply(i);
    const auto config = space.config_at(i);
    EXPECT_EQ(tp1.eval(), std::size_t(config["tp1"]));
    EXPECT_EQ(tp2.eval(), std::size_t(config["tp2"]));
    EXPECT_EQ(tp3.eval(), std::size_t(config["tp3"]));
  }
}

TEST(SearchSpace, ThreeGroupsMixedRadixDecomposition) {
  auto a = atf::tp("a", atf::set(0, 1));
  auto b = atf::tp("b", atf::set(0, 1, 2));
  auto c = atf::tp("c", atf::set(0, 1, 2, 3, 4));
  const auto space =
      search_space::generate({atf::G(a), atf::G(b), atf::G(c)});
  ASSERT_EQ(space.size(), 2u * 3u * 5u);
  // Group 0 is most significant; group 2 varies fastest.
  std::uint64_t index = 0;
  for (int va = 0; va < 2; ++va) {
    for (int vb = 0; vb < 3; ++vb) {
      for (int vc = 0; vc < 5; ++vc, ++index) {
        const auto config = space.config_at(index);
        EXPECT_EQ(int(config["a"]), va);
        EXPECT_EQ(int(config["b"]), vb);
        EXPECT_EQ(int(config["c"]), vc);
      }
    }
  }
}

/// A divides chain the DAG shares (C's list depends only on B) beside an
/// unconstrained group, so flat indices mix a shared tree with a plain one.
std::vector<atf::tp_group> chain_and_lane() {
  auto a = atf::tp("A", atf::interval<std::size_t>(1, 24));
  auto b = atf::tp("B", atf::interval<std::size_t>(1, 24), atf::divides(a));
  auto c = atf::tp("C", atf::interval<std::size_t>(1, 8), atf::divides(b));
  auto lane = atf::tp("LANE", atf::interval<std::size_t>(1, 5));
  return {atf::G(a, b, c), atf::G(lane)};
}

TEST(SearchSpace, PlainLoopOracleMatchesTheDagInEveryMode) {
  const auto groups = chain_and_lane();
  for (const auto mode : {atf::generation_mode::sequential,
                          atf::generation_mode::per_group,
                          atf::generation_mode::intra_group}) {
    const auto dag = search_space::generate(groups, mode, 3);
    const auto plain = atf::detail::generate_plain(groups, mode, 3);
    ASSERT_EQ(plain.size(), dag.size());
    ASSERT_GT(dag.size(), 0u);
    EXPECT_EQ(plain.node_count(), dag.node_count());
    EXPECT_LT(dag.group(0).stats().stored_nodes, dag.group(0).node_count());
    EXPECT_EQ(plain.group(0).stats().stored_nodes,
              plain.group(0).node_count());

    search_space::index_decoder dag_decoder(dag);
    search_space::index_decoder plain_decoder(plain);
    std::vector<std::uint32_t> dag_indices(dag.num_parameters());
    std::vector<std::uint32_t> plain_indices(plain.num_parameters());
    for (std::uint64_t i = 0; i < dag.size(); ++i) {
      ASSERT_EQ(plain.config_at(i).to_string(), dag.config_at(i).to_string())
          << i;
      dag_decoder.value_indices(i, dag_indices.data());
      plain_decoder.value_indices(i, plain_indices.data());
      ASSERT_EQ(plain_indices, dag_indices) << i;
    }
    EXPECT_EQ(plain_decoder.sibling_steps(), dag_decoder.sibling_steps());

    atf::common::xoshiro256 rng_dag(0x0dd);
    atf::common::xoshiro256 rng_plain(0x0dd);
    std::uint64_t at_dag = dag.random_index(rng_dag);
    std::uint64_t at_plain = plain.random_index(rng_plain);
    for (int step = 0; step < 300; ++step) {
      at_dag = dag.random_neighbor(at_dag, rng_dag);
      at_plain = plain.random_neighbor(at_plain, rng_plain);
      ASSERT_EQ(at_plain, at_dag) << "step " << step;
    }
  }
}

TEST(SearchSpace, MemoryAndNodesAreSummedOverGroups) {
  const auto groups = chain_and_lane();
  for (const bool plain_loop : {false, true}) {
    const auto space =
        plain_loop ? atf::detail::generate_plain(
                         groups, atf::generation_mode::sequential)
                   : search_space::generate(groups,
                                            atf::generation_mode::sequential);
    std::size_t bytes = 0;
    std::uint64_t nodes = 0;
    for (std::size_t g = 0; g < space.num_groups(); ++g) {
      EXPECT_GT(space.group(g).memory_bytes(), 0u) << plain_loop << " " << g;
      bytes += space.group(g).memory_bytes();
      nodes += space.group(g).node_count();
    }
    EXPECT_EQ(space.memory_bytes(), bytes) << plain_loop;
    EXPECT_EQ(space.node_count(), nodes) << plain_loop;
  }
}

}  // namespace
