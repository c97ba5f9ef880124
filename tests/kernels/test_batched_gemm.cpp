// Tests for the batched-GEMM workload family: space vs validity oracle, the
// pinned two-sided packing pincer (divisibility from the problem below,
// work-group capacity from the device above) that distinguishes its
// constraint structure from XgemmDirect's chain web, bitwise functional
// correctness, and the occupancy-bound model shape.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "atf/kernels/batched_gemm.hpp"
#include "atf/search_space.hpp"
#include "ocls/ocls.hpp"

namespace {

namespace bg = atf::kernels::batched_gemm;
using atf::kernels::params_from;

ocls::device_profile tiny_gpu(std::size_t max_wg, std::size_t lmem) {
  ocls::device_profile dev = ocls::tesla_k20m_profile();
  dev.max_work_group_size = max_wg;
  dev.local_mem_bytes = lmem;
  return dev;
}

TEST(BatchedGemmSpace, EveryGeneratedConfigIsValid) {
  const bg::problem prob{64, 8, 8, 8};
  const auto dev = tiny_gpu(256, 4096);
  auto setup = bg::make_tuning_parameters(prob, dev);
  const auto space = atf::search_space::generate(setup.groups());
  ASSERT_GT(space.size(), 0u);
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    EXPECT_TRUE(
        bg::valid(prob, params_from<bg::params>(space.config_at(i)), dev));
  }
}

TEST(BatchedGemmSpace, CountMatchesBruteForceOracle) {
  const bg::problem prob{64, 8, 8, 8};
  const auto dev = tiny_gpu(256, 4096);
  auto setup = bg::make_tuning_parameters(prob, dev);
  const auto space = atf::search_space::generate(setup.groups());

  std::uint64_t oracle = 0;
  for (std::uint64_t tm = 1; tm <= prob.m; ++tm)
    for (std::uint64_t tn = 1; tn <= prob.n; ++tn)
      for (const std::uint64_t vecn : {1, 2, 4, 8})
        for (std::uint64_t bpw = 1; bpw <= 16; ++bpw)
          for (int lmem = 0; lmem <= 1; ++lmem)
            for (std::uint64_t ku = 1; ku <= prob.k; ++ku) {
              const bg::params p{tm, tn, bpw, vecn, ku, lmem != 0};
              oracle += bg::valid(prob, p, dev) ? 1 : 0;
            }
  EXPECT_EQ(space.size(), oracle);
}

// The pinned packing pincer, the structural signature XgemmDirect lacks:
// BPW's feasible range depends on the register tile through the work-group
// capacity, (m/TM)*(n/TN)*BPW <= max WG. On a 256-thread device with 8x8
// matrices, the finest tile (TM=TN=1, 64 threads per batch) admits BPW up to
// exactly 4, while the coarsest (TM=TN=8, one thread per batch) runs to the
// range cap 16. XgemmDirect has no parameter whose *range* is carved by two
// other parameters this way — its web is pure divisibility chains.
TEST(BatchedGemmSpace, PackingPincerPinned) {
  const bg::problem prob{64, 8, 8, 8};
  const auto dev = tiny_gpu(256, 1ull << 30);  // lmem out of the picture
  auto setup = bg::make_tuning_parameters(prob, dev);
  const auto space = atf::search_space::generate(setup.groups());

  std::uint64_t max_bpw_fine = 0, max_bpw_coarse = 0;
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    const auto p = params_from<bg::params>(space.config_at(i));
    if (p.tm == 1 && p.tn == 1) {
      max_bpw_fine = std::max(max_bpw_fine, p.bpw);
    }
    if (p.tm == 8 && p.tn == 8) {
      max_bpw_coarse = std::max(max_bpw_coarse, p.bpw);
    }
  }
  EXPECT_EQ(max_bpw_fine, 4u);     // 256 / ((8/1)*(8/1)) = 4
  EXPECT_EQ(max_bpw_coarse, 16u);  // capacity 256, range caps at 16
}

class BatchedGemmFunctionalTest
    : public ::testing::TestWithParam<bg::params> {};

TEST_P(BatchedGemmFunctionalTest, MatchesReferenceBitwise) {
  const bg::problem prob{10, 8, 8, 8};
  const auto a = bg::make_a(prob);
  const auto b = bg::make_b(prob);
  const auto expected = bg::reference_gemm(prob, a, b);

  auto ctx =
      std::make_shared<ocls::context>(ocls::find_device("NVIDIA", "K20m"));
  ctx->execute_functionally(true);
  ocls::command_queue queue(ctx);

  auto a_buf = std::make_shared<ocls::buffer<float>>(a);
  auto b_buf = std::make_shared<ocls::buffer<float>>(b);
  auto c_buf = std::make_shared<ocls::buffer<float>>(expected.size());
  ocls::kernel_args args{ocls::arg(static_cast<std::uint64_t>(prob.batch)),
                         ocls::arg(static_cast<std::uint64_t>(prob.m)),
                         ocls::arg(static_cast<std::uint64_t>(prob.n)),
                         ocls::arg(static_cast<std::uint64_t>(prob.k)),
                         ocls::arg(a_buf), ocls::arg(b_buf),
                         ocls::arg(c_buf)};
  const auto p = GetParam();
  (void)queue.launch(bg::make_kernel(), bg::launch_range(prob, p), args,
                     bg::make_defines(prob, p));
  // Exactly-representable operands: every tile/packing shape reproduces the
  // reference bit-for-bit.
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_EQ((*c_buf)[i], expected[i]) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, BatchedGemmFunctionalTest,
    ::testing::Values(bg::params{1, 1, 1, 1, 1, false},
                      bg::params{2, 2, 4, 2, 2, true},
                      bg::params{8, 8, 16, 8, 8, false},
                      bg::params{4, 2, 3, 1, 4, true}));

TEST(BatchedGemmModel, PackingAmortizesSchedulingOnGpu) {
  // Tiny per-batch work, many batches: one batch per work-group drowns in
  // per-group scheduling overhead; packing 8 batches per group amortizes it.
  const bg::problem prob{4096, 8, 8, 8};
  bg::params solo;
  solo.tm = solo.tn = 2;
  solo.bpw = 1;
  bg::params packed = solo;
  packed.bpw = 8;

  auto ctx =
      std::make_shared<ocls::context>(ocls::find_device("NVIDIA", "K20m"));
  ocls::command_queue queue(ctx);
  const double t_solo =
      queue.launch(bg::make_kernel(), bg::launch_range(prob, solo), {},
                   bg::make_defines(prob, solo))
          .profile_ns();
  const double t_packed =
      queue.launch(bg::make_kernel(), bg::launch_range(prob, packed), {},
                   bg::make_defines(prob, packed))
          .profile_ns();
  EXPECT_LT(t_packed, t_solo);
}

TEST(BatchedGemmModel, OversizedStagingRejectedAtLaunch) {
  const bg::problem prob{64, 32, 32, 32};
  bg::params p;
  p.tm = p.tn = 4;
  p.bpw = 16;  // 16 * (32*32 + 32*32) * 4 bytes = 512 KB > any lmem
  p.lmem_ab = true;
  auto ctx =
      std::make_shared<ocls::context>(ocls::find_device("NVIDIA", "K20m"));
  ocls::command_queue queue(ctx);
  EXPECT_THROW((void)queue.launch(bg::make_kernel(), bg::launch_range(prob, p),
                                  {}, bg::make_defines(prob, p)),
               ocls::out_of_resources);
}

TEST(BatchedGemmReference, EachBatchIsTheInnerProductLoop) {
  const bg::problem prob{3, 37, 29, 53};
  // Operands with full mantissas, so the order of the additions shows.
  std::vector<float> a(prob.batch * prob.m * prob.k);
  std::vector<float> b(prob.batch * prob.k * prob.n);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = 1.0f / static_cast<float>(i + 3);
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = 1.0f - 2.0f / static_cast<float>(i + 7);
  }
  std::vector<float> expected(prob.batch * prob.m * prob.n);
  for (std::size_t bt = 0; bt < prob.batch; ++bt) {
    const float* pa = a.data() + bt * prob.m * prob.k;
    const float* pb = b.data() + bt * prob.k * prob.n;
    float* pc = expected.data() + bt * prob.m * prob.n;
    for (std::size_t i = 0; i < prob.m; ++i) {
      for (std::size_t j = 0; j < prob.n; ++j) {
        float acc = 0.0f;
        for (std::size_t kk = 0; kk < prob.k; ++kk) {
          acc += pa[i * prob.k + kk] * pb[kk * prob.n + j];
        }
        pc[i * prob.n + j] = acc;
      }
    }
  }
  const auto c = bg::reference_gemm(prob, a, b);
  ASSERT_EQ(c.size(), expected.size());
  EXPECT_EQ(
      std::memcmp(c.data(), expected.data(), c.size() * sizeof(float)), 0);
}

}  // namespace
