// Mixed-radix flat indexing across dependency groups near the 2^64-1
// boundary (search_space: group 0 is the most significant digit). The index
// arithmetic must stay exact to the last representable configuration — and
// the documented std::overflow_error must fire the moment the product
// exceeds 2^64-1.
#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
#include <vector>

#include "atf/common/rng.hpp"
#include "atf/search_space.hpp"
#include "atf/tp.hpp"

namespace {

/// Four single-parameter unconstrained groups with the given range sizes.
std::vector<atf::tp_group> make_groups(
    const std::vector<std::size_t>& sizes) {
  std::vector<atf::tp_group> groups;
  for (std::size_t g = 0; g < sizes.size(); ++g) {
    auto param = atf::tp("P" + std::to_string(g),
                         atf::interval<std::size_t>(1, sizes[g]));
    groups.push_back(atf::G(param));
  }
  return groups;
}

/// Hand-rolled mixed-radix decomposition (group 0 most significant).
std::vector<std::uint64_t> decompose(std::uint64_t index,
                                     const std::vector<std::size_t>& sizes) {
  std::vector<std::uint64_t> digits(sizes.size());
  for (std::size_t g = sizes.size(); g-- > 0;) {
    digits[g] = index % sizes[g];
    index /= sizes[g];
  }
  return digits;
}

TEST(MixedRadix, SizeNearTheUint64Boundary) {
  // 65536^3 x 65535 = 2^64 - 2^48: representable, 2^48 short of overflow.
  const std::vector<std::size_t> sizes{65536, 65536, 65536, 65535};
  const auto space = atf::search_space::generate(
      make_groups(sizes), atf::generation_mode::sequential);
  const std::uint64_t expected =
      0xffffffffffffffffull - 0xffffffffffffull;  // 2^64 - 2^48
  EXPECT_EQ(space.size(), expected);
}

TEST(MixedRadix, RoundTripsAtTheBoundaries) {
  const std::vector<std::size_t> sizes{65536, 65536, 65536, 65535};
  const auto space = atf::search_space::generate(
      make_groups(sizes), atf::generation_mode::sequential);

  // Unconstrained interval 1..n: leaf i holds value i+1, so the expected
  // entry values are the mixed-radix digits + 1.
  const std::vector<std::uint64_t> probes{
      0, 1, 65534, 65535, space.size() / 2, space.size() - 2,
      space.size() - 1};
  for (const std::uint64_t index : probes) {
    const auto config = space.config_at(index);
    const auto digits = decompose(index, sizes);
    ASSERT_EQ(config.size(), sizes.size()) << index;
    for (std::size_t g = 0; g < sizes.size(); ++g) {
      EXPECT_EQ(config.get<std::size_t>("P" + std::to_string(g)),
                digits[g] + 1)
          << "index " << index << " group " << g;
    }
    ASSERT_TRUE(config.space_index().has_value());
    EXPECT_EQ(*config.space_index(), index);
  }
}

TEST(MixedRadix, PlainLoopAgreesAtTheBoundaries) {
  // The oracle composes the same flat index over its CSR groups: every
  // boundary probe decodes to the same configuration in both forms.
  const std::vector<std::size_t> sizes{65536, 65536, 65536, 65535};
  const auto dag = atf::search_space::generate(
      make_groups(sizes), atf::generation_mode::sequential);
  const auto plain = atf::detail::generate_plain(
      make_groups(sizes), atf::generation_mode::sequential);
  ASSERT_EQ(plain.size(), dag.size());
  const std::vector<std::uint64_t> probes{
      0, 1, 65535, 65536, dag.size() / 3, dag.size() - 2, dag.size() - 1};
  for (const std::uint64_t index : probes) {
    const auto digits = decompose(index, sizes);
    const auto config = plain.config_at(index);
    EXPECT_EQ(config.to_string(), dag.config_at(index).to_string()) << index;
    for (std::size_t g = 0; g < sizes.size(); ++g) {
      EXPECT_EQ(config.get<std::size_t>("P" + std::to_string(g)),
                digits[g] + 1)
          << "index " << index << " group " << g;
    }
  }
  EXPECT_THROW((void)plain.config_at(plain.size()), std::out_of_range);
}

TEST(MixedRadix, RandomProbesRoundTrip) {
  const std::vector<std::size_t> sizes{65536, 65536, 65536, 65535};
  const auto space = atf::search_space::generate(
      make_groups(sizes), atf::generation_mode::sequential);
  atf::common::xoshiro256 rng(0x60d);
  for (int i = 0; i < 64; ++i) {
    const std::uint64_t index = space.random_index(rng);
    ASSERT_LT(index, space.size());
    const auto digits = decompose(index, sizes);
    const auto config = space.config_at(index);
    for (std::size_t g = 0; g < sizes.size(); ++g) {
      ASSERT_EQ(config.get<std::size_t>("P" + std::to_string(g)),
                digits[g] + 1);
    }
  }
}

TEST(MixedRadix, NeighborNearTheLastIndexChangesOneGroup) {
  const std::vector<std::size_t> sizes{65536, 65536, 65536, 65535};
  const auto space = atf::search_space::generate(
      make_groups(sizes), atf::generation_mode::sequential);
  atf::common::xoshiro256 rng(0xfeed);
  const std::uint64_t last = space.size() - 1;
  for (int i = 0; i < 32; ++i) {
    const std::uint64_t neighbor = space.random_neighbor(last, rng);
    ASSERT_LT(neighbor, space.size());
    ASSERT_NE(neighbor, last);
    // A neighbor move changes exactly one group's digit.
    const auto from = decompose(last, sizes);
    const auto to = decompose(neighbor, sizes);
    int changed = 0;
    for (std::size_t g = 0; g < sizes.size(); ++g) {
      changed += from[g] != to[g] ? 1 : 0;
    }
    EXPECT_EQ(changed, 1);
  }
}

TEST(MixedRadix, ProductOverflowThrowsDocumentedError) {
  // 65536^4 = 2^64: one past the largest representable size.
  EXPECT_THROW(
      (void)atf::search_space::generate(
          make_groups({65536, 65536, 65536, 65536}),
          atf::generation_mode::sequential),
      std::overflow_error);
}

TEST(MixedRadix, OverflowThrowsWithThePlainLoop) {
  EXPECT_THROW((void)atf::detail::generate_plain(
                   make_groups({65536, 65536, 65536, 65536}),
                   atf::generation_mode::sequential),
               std::overflow_error);
}

}  // namespace
