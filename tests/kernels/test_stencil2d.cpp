// Tests for the stencil2d workload family: space vs validity oracle, the
// pinned constraint-structure contrast against XgemmDirect (two shallow
// divides-chains that decouple when the device bounds vanish, vs the
// intrinsically coupled GEMM web), bitwise functional correctness, and the
// bandwidth-bound model shape.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "atf/kernels/stencil2d.hpp"
#include "atf/kernels/xgemm_direct.hpp"
#include "atf/search_space.hpp"
#include "ocls/ocls.hpp"

namespace {

namespace st = atf::kernels::stencil2d;
namespace xg = atf::kernels::xgemm;
using atf::kernels::params_from;

TEST(Stencil2dProblem, InteriorShape) {
  const st::problem prob{14, 12, 2};
  EXPECT_EQ(prob.int_height(), 10u);
  EXPECT_EQ(prob.int_width(), 8u);
}

TEST(Stencil2dSpace, EveryGeneratedConfigIsValid) {
  const st::problem prob{14, 12, 2};
  const std::size_t max_wg = 64;
  const std::size_t lmem = 1024;
  auto setup = st::make_tuning_parameters(prob, max_wg, lmem);
  const auto space = atf::search_space::generate(setup.groups());
  ASSERT_GT(space.size(), 0u);
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    const auto p = params_from<st::params>(space.config_at(i));
    EXPECT_TRUE(st::valid(prob, p, max_wg, lmem));
  }
}

TEST(Stencil2dSpace, CountMatchesBruteForceOracle) {
  const st::problem prob{14, 12, 2};
  const std::size_t max_wg = 64;
  const std::size_t lmem = 1024;
  auto setup = st::make_tuning_parameters(prob, max_wg, lmem);
  const auto space = atf::search_space::generate(setup.groups());

  std::uint64_t oracle = 0;
  const std::uint64_t vws[] = {1, 2, 4, 8};
  for (std::uint64_t tx = 1; tx <= prob.int_width(); ++tx)
    for (std::uint64_t lx = 1; lx <= prob.int_width(); ++lx)
      for (const auto vec : vws)
        for (std::uint64_t ty = 1; ty <= prob.int_height(); ++ty)
          for (std::uint64_t ly = 1; ly <= prob.int_height(); ++ly)
            for (std::uint64_t unroll = 1; unroll <= prob.radius; ++unroll)
              for (int halo = 0; halo <= 1; ++halo) {
                const st::params p{tx, ty, lx, ly, vec, unroll, halo != 0};
                oracle += st::valid(prob, p, max_wg, lmem) ? 1 : 0;
              }
  EXPECT_EQ(space.size(), oracle);
}

// The pinned structural contrast with XgemmDirect. Stencil constraints are
// two independent divides-chains (TX -> LX -> VEC and TY -> LY) tied only by
// the *device* bounds (work-group size, local memory): lift those bounds and
// the space factorizes exactly into chain counts. XgemmDirect's constraint
// web is intrinsic — its divisibility couplings survive unbounded device
// limits, so its space stays strictly below the unconstrained product.
TEST(Stencil2dSpace, ChainsDecoupleWithoutDeviceBounds_UnlikeXgemm) {
  const st::problem prob{14, 12, 2};  // interior 10 x 8, radius 2
  const std::size_t unbounded_wg = 1ull << 20;
  const std::size_t unbounded_lmem = 1ull << 30;
  auto setup = st::make_tuning_parameters(prob, unbounded_wg, unbounded_lmem);
  const auto space = atf::search_space::generate(setup.groups());

  // x-chain: (TX, LX, VEC) with LX | TX and VEC | (TX / LX).
  std::uint64_t x_chain = 0;
  const std::uint64_t vws[] = {1, 2, 4, 8};
  for (std::uint64_t tx = 1; tx <= prob.int_width(); ++tx)
    for (std::uint64_t lx = 1; lx <= tx; ++lx) {
      if (tx % lx != 0) continue;
      for (const auto vec : vws)
        x_chain += ((tx / lx) % vec == 0) ? 1 : 0;
    }
  // y-chain: (TY, LY) with LY | TY.
  std::uint64_t y_chain = 0;
  for (std::uint64_t ty = 1; ty <= prob.int_height(); ++ty)
    for (std::uint64_t ly = 1; ly <= ty; ++ly)
      y_chain += (ty % ly == 0) ? 1 : 0;

  const std::uint64_t unrolls = 2;  // UNROLL | R, R = 2 -> {1, 2}
  const std::uint64_t halo = 2;     // unbounded lmem admits both
  EXPECT_EQ(space.size(), x_chain * y_chain * unrolls * halo);
  EXPECT_EQ(space.size(), 3456u);  // pinned: 32 * 27 * 2 * 2

  // Same lift applied to XgemmDirect: the web stays coupled.
  const xg::problem gemm_prob{8, 8, 8};
  auto gemm_setup = xg::make_tuning_parameters(
      gemm_prob, xg::size_mode::general,
      xg::device_limits{unbounded_wg, unbounded_lmem});
  const auto gemm_space =
      atf::search_space::generate({gemm_setup.group()});
  std::uint64_t unconstrained = 1;
  for (const auto extent : xg::unconstrained_range_sizes(gemm_prob)) {
    unconstrained *= extent;
  }
  EXPECT_LT(gemm_space.size(), unconstrained);
}

class Stencil2dFunctionalTest : public ::testing::TestWithParam<st::params> {
};

TEST_P(Stencil2dFunctionalTest, MatchesReferenceBitwise) {
  const st::problem prob{18, 16, 2};
  const auto in = st::make_input(prob);
  const auto expected = st::reference_stencil(prob, in);

  auto ctx =
      std::make_shared<ocls::context>(ocls::find_device("NVIDIA", "K20m"));
  ctx->execute_functionally(true);
  ocls::command_queue queue(ctx);

  auto in_buf = std::make_shared<ocls::buffer<float>>(in);
  auto out_buf = std::make_shared<ocls::buffer<float>>(in.size());
  ocls::kernel_args args{
      ocls::arg(static_cast<std::uint64_t>(prob.height)),
      ocls::arg(static_cast<std::uint64_t>(prob.width)),
      ocls::arg(static_cast<std::uint64_t>(prob.radius)),
      ocls::arg(in_buf), ocls::arg(out_buf)};
  const auto p = GetParam();
  (void)queue.launch(st::make_kernel(), st::launch_range(prob, p), args,
                     st::make_defines(prob, p));
  // make_input yields exactly-representable grids, so every tile/vector
  // partition must reproduce the reference bit-for-bit.
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ((*out_buf)[i], expected[i]) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Stencil2dFunctionalTest,
    ::testing::Values(st::params{4, 4, 4, 4, 1, 1, true},
                      st::params{8, 6, 2, 3, 4, 2, false},
                      st::params{12, 14, 4, 7, 1, 2, true},
                      st::params{1, 1, 1, 1, 1, 1, false}));

TEST(Stencil2dModel, HaloStagingBeatsRereadsOnGpu) {
  const st::problem prob{512, 512, 2};
  st::params staged;
  staged.tx = staged.ty = 16;
  staged.lx = staged.ly = 8;
  staged.vec = 2;
  staged.halo_lmem = true;
  st::params unstaged = staged;
  unstaged.halo_lmem = false;

  auto ctx =
      std::make_shared<ocls::context>(ocls::find_device("NVIDIA", "K20m"));
  ocls::command_queue queue(ctx);
  const double t_staged =
      queue.launch(st::make_kernel(), st::launch_range(prob, staged), {},
                   st::make_defines(prob, staged))
          .profile_ns();
  const double t_unstaged =
      queue.launch(st::make_kernel(), st::launch_range(prob, unstaged), {},
                   st::make_defines(prob, unstaged))
          .profile_ns();
  EXPECT_LT(t_staged, t_unstaged);
}

TEST(Stencil2dModel, OversizedHaloTileRejectedAtLaunch) {
  const st::problem prob{1024, 1024, 4};
  st::params p;
  p.tx = p.ty = 256;  // (256 + 8)^2 * 4 bytes ~ 272 KB > any lmem
  p.lx = p.ly = 16;
  p.halo_lmem = true;
  auto ctx =
      std::make_shared<ocls::context>(ocls::find_device("NVIDIA", "K20m"));
  ocls::command_queue queue(ctx);
  EXPECT_THROW((void)queue.launch(st::make_kernel(), st::launch_range(prob, p),
                                  {}, st::make_defines(prob, p)),
               ocls::out_of_resources);
  p.halo_lmem = false;
  EXPECT_NO_THROW((void)queue.launch(st::make_kernel(),
                                     st::launch_range(prob, p), {},
                                     st::make_defines(prob, p)));
}

}  // namespace
