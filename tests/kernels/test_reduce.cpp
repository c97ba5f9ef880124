// Tests for the reduction workload: space constraints, functional
// correctness of the per-group partial sums, tail guarding and model
// sanity.
#include <gtest/gtest.h>

#include <memory>
#include <numeric>

#include "atf/kernels/reduce.hpp"
#include "atf/search_space.hpp"
#include "ocls/ocls.hpp"

namespace {

namespace rd = atf::kernels::reduce;

TEST(ReduceSpace, ConstraintsHold) {
  const std::size_t n = 4096;
  auto setup = rd::make_tuning_parameters(n, 256);
  const auto space = atf::search_space::generate({setup.group()});
  ASSERT_GT(space.size(), 0u);
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    const auto config = space.config_at(i);
    const std::uint64_t ls = config["LS"];
    const std::uint64_t wpt = config["WPT"];
    const std::uint64_t unroll = config["UNROLL"];
    EXPECT_TRUE((ls & (ls - 1)) == 0) << "LS must be a power of two";
    EXPECT_LE(ls, 256u);
    EXPECT_LE(wpt, n / ls);
    EXPECT_EQ(wpt % unroll, 0u);
  }
}

class ReduceFunctionalTest
    : public ::testing::TestWithParam<rd::params> {};

TEST_P(ReduceFunctionalTest, PartialSumsAddUp) {
  const std::size_t n = 1000;  // deliberately not a power of two (tail)
  const auto p = GetParam();

  auto ctx =
      std::make_shared<ocls::context>(ocls::find_device("NVIDIA", "K20m"));
  ctx->execute_functionally(true);
  ocls::command_queue queue(ctx);

  auto in = std::make_shared<ocls::buffer<float>>(n);
  double expected = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    (*in)[i] = static_cast<float>((i % 9)) - 4.0f;
    expected += (*in)[i];
  }
  const std::size_t groups = rd::num_groups(n, p);
  auto partials = std::make_shared<ocls::buffer<float>>(groups);

  ocls::kernel_args args{ocls::arg(static_cast<double>(n)), ocls::arg(in),
                         ocls::arg(partials)};
  (void)queue.launch(rd::make_kernel(), rd::launch_range(n, p), args,
                     rd::make_defines(n, p));

  double total = 0.0;
  for (std::size_t g = 0; g < groups; ++g) {
    total += (*partials)[g];
  }
  EXPECT_NEAR(total, expected, 1e-3);
}

INSTANTIATE_TEST_SUITE_P(Geometries, ReduceFunctionalTest,
                         ::testing::Values(rd::params{1, 1, 1},
                                           rd::params{32, 4, 2},
                                           rd::params{128, 8, 1},
                                           rd::params{256, 1, 1},
                                           rd::params{64, 16, 8}));

TEST(ReduceModel, MoreCoverageIsFaster) {
  auto ctx =
      std::make_shared<ocls::context>(ocls::find_device("NVIDIA", "K20m"));
  ocls::command_queue queue(ctx);
  const std::size_t n = 1 << 22;
  auto time = [&](const rd::params& p) {
    return queue
        .launch(rd::make_kernel(), rd::launch_range(n, p), {},
                rd::make_defines(n, p))
        .profile_ns();
  };
  // One giant group serializes on one compute unit.
  EXPECT_GT(time({1024, n / 1024, 1}), time({256, 16, 1}));
  // Partial warps are penalized.
  EXPECT_GT(time({8, 64, 1}), time({32, 16, 1}));
}

TEST(ReduceLaunch, GroupCountCeils) {
  EXPECT_EQ(rd::num_groups(1000, {128, 4, 1}), 2u);   // ceil(1000/512)
  EXPECT_EQ(rd::num_groups(1024, {128, 4, 1}), 2u);
  EXPECT_EQ(rd::num_groups(1025, {128, 4, 1}), 3u);
  const auto range = rd::launch_range(1000, {128, 4, 1});
  EXPECT_EQ(range.global[0], 256u);
  EXPECT_EQ(range.local[0], 128u);
}

}  // namespace
