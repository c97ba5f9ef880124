// Storage backends behind space_tree (space_storage.hpp): dense is the
// reference; packed and lazy must be bit-identical to it through every
// public access path — values, paths, neighbor moves, applied slots — while
// reporting the memory behaviour they exist for (packed: smaller; lazy:
// bounded by the chunk cache, correct under aggressive eviction).
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "atf/common/rng.hpp"
#include "atf/common/thread_pool.hpp"
#include "atf/constraint.hpp"
#include "atf/space_tree.hpp"
#include "atf/tp.hpp"

namespace {

constexpr atf::space_storage_backend kBackends[] = {
    atf::space_storage_backend::dense,
    atf::space_storage_backend::packed,
    atf::space_storage_backend::lazy,
};

atf::space_storage_policy policy_for(atf::space_storage_backend backend,
                                     std::size_t cache_bytes = 1 << 20,
                                     std::size_t target_chunks = 0) {
  atf::space_storage_policy policy;
  policy.backend = backend;
  policy.chunk_cache_bytes = cache_bytes;
  policy.lazy_target_chunks = target_chunks;
  return policy;
}

/// A constrained two-group-worthy tree: WPT in 1..32 dividing 32, LS in
/// 1..32 dividing WPT — the saxpy shape the dense tests already pin.
atf::tp_group make_constrained_group() {
  auto wpt =
      atf::tp("WPT", atf::interval<std::size_t>(1, 32), atf::divides(32));
  auto ls = atf::tp("LS", atf::interval<std::size_t>(1, 32),
                    atf::divides(wpt));
  return atf::G(wpt, ls);
}

void expect_backend_identical(const atf::space_tree& dense,
                              const atf::space_tree& other,
                              const char* label) {
  ASSERT_EQ(other.size(), dense.size()) << label;
  ASSERT_EQ(other.depth(), dense.depth()) << label;
  EXPECT_EQ(other.node_count(), dense.node_count()) << label;

  // Every leaf: identical values and identical path (the global dense node
  // numbering is part of the storage contract).
  std::vector<std::uint64_t> expected_path(dense.depth());
  std::vector<std::uint64_t> actual_path(dense.depth());
  for (std::uint64_t index = 0; index < dense.size(); ++index) {
    ASSERT_EQ(other.values_at(index), dense.values_at(index))
        << label << " at leaf " << index;
    dense.path_of(index, expected_path.data());
    other.path_of(index, actual_path.data());
    ASSERT_EQ(actual_path, expected_path) << label << " at leaf " << index;
  }

  // Identically seeded neighbor walks consume the same RNG stream and must
  // visit the same leaves.
  atf::common::xoshiro256 rng_dense(0xabcd);
  atf::common::xoshiro256 rng_other(0xabcd);
  std::uint64_t at_dense = 0;
  std::uint64_t at_other = 0;
  for (int step = 0; step < 200; ++step) {
    at_dense = dense.random_neighbor(at_dense, rng_dense);
    at_other = other.random_neighbor(at_other, rng_other);
    ASSERT_EQ(at_other, at_dense) << label << " at step " << step;
  }
}

TEST(SpaceStorage, AllBackendsMatchDenseOnConstrainedTree) {
  const auto group = make_constrained_group();
  const auto dense = atf::space_tree::generate(group);
  for (const auto backend : kBackends) {
    const auto tree = atf::space_tree::generate(group, policy_for(backend));
    EXPECT_EQ(tree.storage_backend(), backend);
    expect_backend_identical(dense, tree, atf::to_string(backend));
  }
}

TEST(SpaceStorage, BackendsMatchDenseUnderPooledGeneration) {
  const auto group = make_constrained_group();
  const auto dense = atf::space_tree::generate(group);
  atf::common::thread_pool pool(2);
  for (const auto backend : kBackends) {
    const auto tree =
        atf::space_tree::generate(group, pool, {}, policy_for(backend));
    expect_backend_identical(dense, tree, atf::to_string(backend));
  }
}

TEST(SpaceStorage, LazySurvivesAggressiveEviction) {
  // A 1-byte cache budget forces eviction after every chunk; with one chunk
  // per root value, every access regenerates. Results must not change.
  const auto group = make_constrained_group();
  const auto dense = atf::space_tree::generate(group);
  const auto lazy = atf::space_tree::generate(
      group, policy_for(atf::space_storage_backend::lazy, /*cache_bytes=*/1,
                        /*target_chunks=*/1000));
  expect_backend_identical(dense, lazy, "lazy/evicting");
}

TEST(SpaceStorage, LazyAppliesValuesToSlots) {
  // apply() must leave the *applied* values in the tp slots even though
  // lazy regeneration itself writes the slots while re-expanding chunks.
  auto wpt =
      atf::tp("WPT", atf::interval<std::size_t>(1, 32), atf::divides(32));
  auto ls = atf::tp("LS", atf::interval<std::size_t>(1, 32),
                    atf::divides(wpt));
  const auto group = atf::G(wpt, ls);
  const auto dense = atf::space_tree::generate(group);
  const auto lazy = atf::space_tree::generate(
      group,
      policy_for(atf::space_storage_backend::lazy, 1, /*target_chunks=*/8));
  for (std::uint64_t index = 0; index < dense.size(); ++index) {
    const auto values = dense.values_at(index);
    lazy.apply(index);
    EXPECT_EQ(wpt.eval(), atf::from_tp_value<std::size_t>(values[0]))
        << index;
    EXPECT_EQ(ls.eval(), atf::from_tp_value<std::size_t>(values[1])) << index;
  }
}

/// What the tree would hold as plain CSR: the per-chunk byte formula of
/// generation_stats (24 B per inner node, 4 B per leaf). Dense stores a
/// shared-suffix DAG instead, so the CSR figure is the yardstick.
std::uint64_t csr_bytes(const atf::space_tree& tree) {
  std::uint64_t bytes = 0;
  for (const auto& chunk : tree.stats().per_chunk) {
    bytes += chunk.bytes;
  }
  return bytes;
}

TEST(SpaceStorage, PackedIsSmallerThanDense) {
  const auto group = make_constrained_group();
  const auto dense = atf::space_tree::generate(group);
  const auto packed = atf::space_tree::generate(
      group, policy_for(atf::space_storage_backend::packed));
  EXPECT_GT(csr_bytes(dense), 0u);
  EXPECT_LT(packed.memory_bytes(), csr_bytes(dense));
}

TEST(SpaceStorage, LazyMemoryIsBoundedByCache) {
  auto a = atf::tp("A", atf::interval<std::size_t>(1, 64));
  auto b = atf::tp("B", atf::interval<std::size_t>(1, 64));
  const auto group = atf::G(a, b);  // 4096 leaves, 64 chunks
  const auto dense = atf::space_tree::generate(group);
  const auto lazy = atf::space_tree::generate(
      group, policy_for(atf::space_storage_backend::lazy,
                        /*cache_bytes=*/4096, /*target_chunks=*/64));
  // Touch every leaf: the cache must stay near its budget (one materialized
  // chunk may exceed it, but chunks here are ~1.5 KB each).
  atf::common::xoshiro256 rng(0x77);
  for (int i = 0; i < 500; ++i) {
    (void)lazy.values_at(lazy.random_index(rng));
  }
  EXPECT_LT(lazy.memory_bytes(), csr_bytes(dense));
  EXPECT_LT(lazy.memory_bytes(), 64u * 1024u);
}

TEST(SpaceStorage, DropStatsReleasesPerChunkAccounting) {
  const auto group = make_constrained_group();
  atf::common::thread_pool pool(2);
  auto tree = atf::space_tree::generate(group, pool);
  ASSERT_FALSE(tree.stats().per_chunk.empty());
  const auto nodes = tree.stats().nodes;
  const auto chunks = tree.stats().chunks;
  tree.drop_stats();
  EXPECT_TRUE(tree.stats().per_chunk.empty());
  EXPECT_EQ(tree.stats().per_chunk.capacity(), 0u);
  // Aggregates survive.
  EXPECT_EQ(tree.stats().nodes, nodes);
  EXPECT_EQ(tree.stats().chunks, chunks);
}

TEST(SpaceStorage, LazyDropsPerChunkStatsAutomatically) {
  const auto group = make_constrained_group();
  const auto lazy = atf::space_tree::generate(
      group, policy_for(atf::space_storage_backend::lazy));
  EXPECT_TRUE(lazy.stats().per_chunk.empty());
  EXPECT_GT(lazy.stats().chunks, 1u);  // lazy chunks even sequentially
  EXPECT_GT(lazy.stats().nodes, 0u);
}

TEST(SpaceStorage, ChunkStatsReportBytes) {
  const auto group = make_constrained_group();
  const auto dense = atf::space_tree::generate(group);
  ASSERT_FALSE(dense.stats().per_chunk.empty());
  std::uint64_t total = 0;
  for (const auto& chunk : dense.stats().per_chunk) {
    // 24 B per inner node; a leaf (one per configuration) stores only its
    // 4 B value index.
    EXPECT_EQ(chunk.bytes, (chunk.nodes - chunk.leaves) * 24u +
                               chunk.leaves * 4u);
    total += chunk.bytes;
  }
  EXPECT_GT(total, 0u);
  EXPECT_GT(dense.stats().bytes, 0u);
}

// The chunk table every backend shares, at its edges: each test compares
// every backend, generated on a pool, against sequential dense.

TEST(SpaceStorage, DepthOneGroupUnderPooledGeneration) {
  // The root level is the leaf level: it stores value indices only, with no
  // leaf_count array for root scans to read.
  auto a = atf::tp("A", atf::interval<std::size_t>(1, 200),
                   atf::pred([](std::size_t v) { return v % 3 != 0; }));
  const auto group = atf::G(a);
  const auto dense = atf::space_tree::generate(group);
  atf::common::thread_pool pool(3);
  for (const auto backend : kBackends) {
    const auto tree =
        atf::space_tree::generate(group, pool, {}, policy_for(backend));
    EXPECT_GE(tree.stats().chunks, 2u) << atf::to_string(backend);
    expect_backend_identical(dense, tree, atf::to_string(backend));
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
  const auto dense = atf::space_tree::generate(group);
  atf::generation_policy aggressive;
  aggressive.min_split_visited = 16;
  aggressive.split_only_when_starving = false;
  atf::common::thread_pool pool(3);
  for (const auto backend : kBackends) {
    const auto tree = atf::space_tree::generate(group, pool, aggressive,
                                                policy_for(backend));
    EXPECT_GE(tree.stats().resplits, 1u) << atf::to_string(backend);
    if (backend != atf::space_storage_backend::lazy) {
      std::size_t empty = 0;
      for (const auto& chunk : tree.stats().per_chunk) {
        empty += chunk.leaves == 0 ? 1 : 0;
      }
      EXPECT_GE(empty, 1u) << atf::to_string(backend);
    }
    expect_backend_identical(dense, tree, atf::to_string(backend));
  }
}

TEST(SpaceStorage, RootNeighborMovesCrossChunkBoundaries) {
  auto a = atf::tp("A", atf::interval<std::size_t>(1, 64));
  auto b = atf::tp("B", atf::interval<std::size_t>(1, 8), atf::divides(a));
  const auto group = atf::G(a, b);
  const auto dense = atf::space_tree::generate(group);
  // The fixed pre-partition makes the chunk spans deterministic: 16 chunks
  // of 4 root values (lazy refines them to one root value per chunk, so a
  // crossing counted below is a crossing for lazy too).
  atf::generation_policy fixed;
  fixed.adaptive = false;
  atf::common::thread_pool pool(3);
  const auto chunks =
      atf::space_tree::generate(group, pool, fixed).stats().per_chunk;
  ASSERT_GE(chunks.size(), 2u);
  const auto chunk_of_root = [&](std::uint64_t leaf) {
    const auto root =
        atf::from_tp_value<std::size_t>(dense.values_at(leaf)[0]) - 1;
    std::size_t c = 0;
    while (root >= chunks[c].root_hi) {
      ++c;
    }
    return c;
  };
  for (const auto backend : kBackends) {
    const auto tree =
        atf::space_tree::generate(group, pool, fixed, policy_for(backend));
    std::size_t crossings = 0;
    for (std::uint64_t index = 0; index < dense.size(); ++index) {
      atf::common::xoshiro256 rng_dense(index);
      atf::common::xoshiro256 rng_other(index);
      const std::uint64_t expected = dense.random_neighbor(index, rng_dense);
      ASSERT_EQ(tree.random_neighbor(index, rng_other), expected)
          << atf::to_string(backend) << " from leaf " << index;
      crossings += chunk_of_root(expected) != chunk_of_root(index) ? 1 : 0;
    }
    EXPECT_GT(crossings, 0u) << atf::to_string(backend);
  }
}

TEST(SpaceStorage, EmptyGroupWorksInEveryBackend) {
  for (const auto backend : kBackends) {
    const auto tree =
        atf::space_tree::generate(atf::tp_group{}, policy_for(backend));
    EXPECT_EQ(tree.size(), 1u) << atf::to_string(backend);
    EXPECT_EQ(tree.depth(), 0u);
    EXPECT_EQ(tree.node_count(), 0u);
    EXPECT_TRUE(tree.values_at(0).empty());
    tree.apply(0);
  }
}

TEST(SpaceStorage, EmptySpaceWorksInEveryBackend) {
  // 7 is prime, so no value in 2..3 divides it: the space is empty.
  for (const auto backend : kBackends) {
    auto a = atf::tp("A", atf::set<std::size_t>({7}));
    auto b = atf::tp("B", atf::interval<std::size_t>(2, 3), atf::divides(a));
    const auto tree =
        atf::space_tree::generate(atf::G(a, b), policy_for(backend));
    EXPECT_EQ(tree.size(), 0u) << atf::to_string(backend);
    EXPECT_THROW((void)tree.values_at(0), std::out_of_range);
  }
}

TEST(SpaceStorage, SingleValueTreeWorksInEveryBackend) {
  for (const auto backend : kBackends) {
    auto a = atf::tp("A", atf::set<std::size_t>({5}));
    const auto tree = atf::space_tree::generate(atf::G(a), policy_for(backend));
    ASSERT_EQ(tree.size(), 1u) << atf::to_string(backend);
    EXPECT_EQ(tree.values_at(0).size(), 1u);
    atf::common::xoshiro256 rng(1);
    EXPECT_EQ(tree.random_neighbor(0, rng), 0u);
  }
}

// value_indices through one reused cursor, against an enumeration that does
// not use the tree: A in 1..24, B in 1..24 dividing A, C in 1..8 dividing
// B, optionally with a D in 1..3 that B's constraint reads (a read after its
// own level, which turns the DAG off: the dense CSR fallback).

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
    const auto dense = atf::space_tree::generate(group);
    // The DAG shares C's lists across B; the fallback stores every node.
    if (with_d) {
      EXPECT_EQ(dense.stats().stored_nodes, dense.node_count());
    } else {
      EXPECT_LT(dense.stats().stored_nodes, dense.node_count());
    }
    expect_value_indices(dense, expected, shape + " dense");
    for (const auto backend : kBackends) {
      const auto chunked = atf::space_tree::generate(
          group, pool, eager,
          policy_for(backend, /*cache_bytes=*/1 << 10,
                     /*target_chunks=*/16));
      EXPECT_GE(chunked.stats().chunks, 4u);
      expect_value_indices(chunked, expected,
                           shape + " chunked " + atf::to_string(backend));
    }
  }
}

TEST(SpaceStorage, BackendNamesRoundTrip) {
  EXPECT_STREQ(atf::to_string(atf::space_storage_backend::dense), "dense");
  EXPECT_STREQ(atf::to_string(atf::space_storage_backend::packed), "packed");
  EXPECT_STREQ(atf::to_string(atf::space_storage_backend::lazy), "lazy");
}

}  // namespace
