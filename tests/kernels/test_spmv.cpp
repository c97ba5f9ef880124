// Tests for the SpMV workload family: the deterministic irregular matrix
// generator, space vs validity oracle with pinned per-device counts, the
// constraint-structure contrast against XgemmDirect (occupancy bounds only —
// no divisibility against the problem size at all), bitwise functional
// correctness across vector widths, and the imbalance-driven model shape.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "atf/kernels/spmv.hpp"
#include "atf/search_space.hpp"
#include "ocls/ocls.hpp"

namespace {

namespace sp = atf::kernels::spmv;
using atf::kernels::params_from;

TEST(SpmvMatrix, GeneratorIsDeterministicAndBounded) {
  const sp::problem prob{512, 16, 0.5};
  const auto a = sp::make_matrix(prob);
  const auto b = sp::make_matrix(prob);
  EXPECT_EQ(a.row_ptr, b.row_ptr);
  EXPECT_EQ(a.cols, b.cols);
  EXPECT_EQ(a.vals, b.vals);
  EXPECT_EQ(a.x, b.x);

  ASSERT_EQ(a.row_ptr.size(), prob.rows + 1);
  // Row lengths stay inside [mean * (1 - skew), mean * (1 + skew)].
  for (std::size_t row = 0; row < prob.rows; ++row) {
    const std::uint32_t len = a.row_ptr[row + 1] - a.row_ptr[row];
    EXPECT_GE(len, 8u) << "row " << row;
    EXPECT_LE(len, 24u) << "row " << row;
  }
  // A different seed reshuffles the structure.
  const auto c = sp::make_matrix(prob, 0xdead);
  EXPECT_NE(a.row_ptr, c.row_ptr);
}

TEST(SpmvSpace, EveryGeneratedConfigIsValid) {
  const sp::problem prob{256, 8, 0.5};
  const auto dev = ocls::find_device("NVIDIA", "K20m").profile();
  auto setup = sp::make_tuning_parameters(prob, dev);
  const auto space = atf::search_space::generate(setup.groups());
  ASSERT_GT(space.size(), 0u);
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    EXPECT_TRUE(
        sp::valid(prob, params_from<sp::params>(space.config_at(i)), dev));
  }
}

TEST(SpmvSpace, CountMatchesBruteForceOracle) {
  const sp::problem prob{256, 8, 0.5};
  const auto dev = ocls::find_device("", "Iris").profile();
  auto setup = sp::make_tuning_parameters(prob, dev);
  const auto space = atf::search_space::generate(setup.groups());

  std::uint64_t oracle = 0;
  for (const std::uint64_t vw : {1, 2, 4, 8, 16, 32})
    for (const std::uint64_t wg : {32, 64, 128, 256, 512, 1024})
      for (std::uint64_t rpb = 1; rpb <= 8; ++rpb)
        for (const std::uint64_t unroll : {1, 2, 4}) {
          const sp::params p{vw, wg, rpb, unroll};
          oracle += sp::valid(prob, p, dev) ? 1 : 0;
        }
  EXPECT_EQ(space.size(), oracle);
}

// The pinned structural contrast with XgemmDirect: every SpMV constraint is
// an occupancy bound against the *device* (SIMD width, work-group limit);
// none reference the problem size. The space is therefore identical across
// matrix sizes — a property no divides-constrained family has — and its
// per-device cardinality is pinned exactly.
TEST(SpmvSpace, SizeIndependentOfProblem_UnlikeXgemm) {
  const auto k20m = ocls::find_device("NVIDIA", "K20m").profile();
  const auto iris = ocls::find_device("", "Iris").profile();

  const sp::problem small{100, 4, 0.0};
  const sp::problem large{50'000, 64, 0.9};
  auto setup_small = sp::make_tuning_parameters(small, k20m);
  auto setup_large = sp::make_tuning_parameters(large, k20m);
  const auto space_small = atf::search_space::generate(setup_small.groups());
  const auto space_large = atf::search_space::generate(setup_large.groups());
  EXPECT_EQ(space_small.size(), space_large.size());

  // K20m (SIMD 32, max WG 1024): all 6 VW x 6 WG pairs survive -> 36 * 8 * 3.
  EXPECT_EQ(space_small.size(), 864u);
  // Iris 6100 (SIMD 8, max WG 256): 4 VW x 4 WG pairs -> 16 * 8 * 3.
  auto setup_iris = sp::make_tuning_parameters(small, iris);
  EXPECT_EQ(atf::search_space::generate(setup_iris.groups()).size(), 384u);
}

class SpmvFunctionalTest : public ::testing::TestWithParam<sp::params> {};

TEST_P(SpmvFunctionalTest, MatchesReferenceBitwise) {
  const sp::problem prob{300, 12, 0.7};
  const auto m = sp::make_matrix(prob);
  const auto expected = sp::reference_spmv(m);

  auto ctx =
      std::make_shared<ocls::context>(ocls::find_device("NVIDIA", "K20m"));
  ctx->execute_functionally(true);
  ocls::command_queue queue(ctx);

  auto row_ptr = std::make_shared<ocls::buffer<std::uint32_t>>(m.row_ptr);
  auto cols = std::make_shared<ocls::buffer<std::uint32_t>>(m.cols);
  auto vals = std::make_shared<ocls::buffer<float>>(m.vals);
  auto x = std::make_shared<ocls::buffer<float>>(m.x);
  auto y = std::make_shared<ocls::buffer<float>>(prob.rows);
  ocls::kernel_args args{ocls::arg(static_cast<std::uint64_t>(prob.rows)),
                         ocls::arg(row_ptr), ocls::arg(cols), ocls::arg(vals),
                         ocls::arg(x),       ocls::arg(y)};
  const auto p = GetParam();
  (void)queue.launch(sp::make_kernel(), sp::launch_range(prob, p), args,
                     sp::make_defines(prob, p));
  // The generator emits exactly-representable values, so any VW partition
  // of a row sum must agree with the scalar reference bit-for-bit.
  for (std::size_t row = 0; row < prob.rows; ++row) {
    ASSERT_EQ((*y)[row], expected[row]) << "row " << row;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, SpmvFunctionalTest,
    ::testing::Values(sp::params{1, 32, 1, 1}, sp::params{4, 128, 2, 2},
                      sp::params{32, 1024, 8, 4}, sp::params{8, 64, 3, 1}));

TEST(SpmvModel, SkewAndRowBlockingShapeTheLandscape) {
  auto ctx =
      std::make_shared<ocls::context>(ocls::find_device("NVIDIA", "K20m"));
  ocls::command_queue queue(ctx);
  const sp::params p{4, 128, 1, 1};

  // More irregular rows -> more imbalance -> slower.
  const sp::problem uniform{16'384, 16, 0.0};
  const sp::problem skewed{16'384, 16, 0.9};
  const double t_uniform =
      queue.launch(sp::make_kernel(), sp::launch_range(uniform, p), {},
                   sp::make_defines(uniform, p))
          .profile_ns();
  const double t_skewed =
      queue.launch(sp::make_kernel(), sp::launch_range(skewed, p), {},
                   sp::make_defines(skewed, p))
          .profile_ns();
  EXPECT_GT(t_skewed, t_uniform);

  // Row blocking averages the variance out: RPB = 8 on the skewed matrix
  // beats RPB = 1 with the same lane shape.
  sp::params blocked = p;
  blocked.rpb = 8;
  const double t_blocked =
      queue.launch(sp::make_kernel(), sp::launch_range(skewed, blocked), {},
                   sp::make_defines(skewed, blocked))
          .profile_ns();
  EXPECT_LT(t_blocked, t_skewed);
}

}  // namespace
