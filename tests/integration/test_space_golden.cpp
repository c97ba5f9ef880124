// Golden pin of an XgemmDirect space tree: the configurations and global
// node paths at 4096 fixed-seed leaf indices plus a 500-step random_neighbor
// walk, folded into one FNV-1a hash per generation variant. The constants
// were recorded before the storage layout last changed, so any drift in
// leaf order, node numbering or neighbor moves — in the shared-suffix DAG,
// the plain loop (detail::generate_plain) or any generation schedule —
// fails here even if all variants drift together.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "atf/common/rng.hpp"
#include "atf/common/thread_pool.hpp"
#include "atf/kernels/xgemm_direct.hpp"
#include "atf/search_space.hpp"
#include "atf/space_tree.hpp"

namespace {

namespace xg = atf::kernels::xgemm;

// XgemmDirect 32x32x32 on a 256-work-item, 16 KiB device: 10 parameters,
// 743,696 configurations — big enough that pooled generation runs many
// chunks, small enough to generate in well under a second.
constexpr xg::problem kProblem{32, 32, 32};
constexpr xg::device_limits kLimits{256, 16 * 1024};

constexpr std::uint64_t kSize = 743696;
constexpr std::uint64_t kNodes = 1489182;
constexpr std::uint64_t kGolden = 17214847950039890102ull;

struct fnv {
  std::uint64_t state = 1469598103934665603ull;
  void add(std::uint64_t word) {
    for (int byte = 0; byte < 8; ++byte) {
      state ^= (word >> (8 * byte)) & 0xff;
      state *= 1099511628211ull;
    }
  }
  void add(const std::string& text) {
    for (const char c : text) {
      state ^= static_cast<unsigned char>(c);
      state *= 1099511628211ull;
    }
    add(text.size());
  }
};

std::uint64_t fingerprint(const atf::space_tree& tree) {
  fnv hash;
  std::vector<std::uint64_t> path(tree.depth());
  atf::common::xoshiro256 rng(0x901d);
  for (int i = 0; i < 4096; ++i) {
    const std::uint64_t index = tree.random_index(rng);
    hash.add(index);
    for (const atf::tp_value& value : tree.values_at(index)) {
      hash.add(atf::to_string(value));
    }
    tree.path_of(index, path.data());
    for (const std::uint64_t node : path) {
      hash.add(node);
    }
  }
  std::uint64_t at = tree.random_index(rng);
  for (int step = 0; step < 500; ++step) {
    at = tree.random_neighbor(at, rng);
    hash.add(at);
  }
  return hash.state;
}

void expect_golden(const atf::space_tree& tree, const char* label) {
  EXPECT_EQ(tree.size(), kSize) << label;
  EXPECT_EQ(tree.node_count(), kNodes) << label;
  EXPECT_EQ(fingerprint(tree), kGolden) << label;
}

TEST(SpaceGolden, DagSequential) {
  const auto setup =
      xg::make_tuning_parameters(kProblem, xg::size_mode::general, kLimits);
  expect_golden(atf::space_tree::generate(setup.group()), "dag/sequential");
}

TEST(SpaceGolden, DagPooled) {
  atf::common::thread_pool pool(3);
  const auto setup =
      xg::make_tuning_parameters(kProblem, xg::size_mode::general, kLimits);
  const auto tree = atf::space_tree::generate(setup.group(), pool);
  EXPECT_GT(tree.stats().chunks, 1u);
  expect_golden(tree, "dag/pooled");
}

TEST(SpaceGolden, PlainLoop) {
  for (const auto mode :
       {atf::generation_mode::sequential, atf::generation_mode::intra_group}) {
    const auto setup =
        xg::make_tuning_parameters(kProblem, xg::size_mode::general, kLimits);
    const auto tree =
        atf::detail::generate_plain({setup.group()}, mode, 3).group(0);
    const bool pooled = mode == atf::generation_mode::intra_group;
    EXPECT_EQ(tree.stats().stored_nodes, kNodes);
    EXPECT_EQ(tree.stats().chunks > 1, pooled);
    expect_golden(tree, pooled ? "plain/pooled" : "plain/sequential");
  }
}

}  // namespace
