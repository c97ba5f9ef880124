// Tests for the XgemmDirect workload: the 10-parameter/17-constraint space
// against the standalone validity oracle, launch geometry in both size
// modes, functional correctness against the reference GEMM (including
// ceil-rounded tails), the reference GEMM's bit-identity with the
// inner-product loop, and performance-model sanity properties.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <memory>
#include <vector>

#include "atf/kernels/reference.hpp"
#include "atf/kernels/xgemm_direct.hpp"
#include "atf/search_space.hpp"
#include "ocls/ocls.hpp"

namespace {

namespace xg = atf::kernels::xgemm;

using atf::kernels::params_from;

TEST(XgemmProblem, CaffeInputSizes) {
  const auto is1 = xg::caffe_input_size(1);
  EXPECT_EQ(is1.m, 20u);
  EXPECT_EQ(is1.n, 576u);
  EXPECT_EQ(is1.k, 1u);
  const auto is4 = xg::caffe_input_size(4);
  EXPECT_EQ(is4.m, 10u);
  EXPECT_EQ(is4.n, 500u);
  EXPECT_EQ(is4.k, 64u);
  EXPECT_THROW((void)xg::caffe_input_size(0), std::invalid_argument);
  EXPECT_THROW((void)xg::caffe_input_size(5), std::invalid_argument);
}

TEST(XgemmParams, DefaultsMatchThePaper) {
  const auto d = xg::params::defaults();
  EXPECT_EQ(d.wgd, 8u);   // "the default parameter values are small,
  EXPECT_EQ(d.kwid, 1u);  //  e.g., WGD=8 and KWID=1" (Section VI-B)
}

TEST(XgemmParams, DefinesRoundTrip) {
  xg::params p;
  p.wgd = 32;
  p.vwmd = 4;
  p.pada = false;
  ocls::define_map defines;
  atf::kernels::to_defines(p, defines);
  const auto q = atf::kernels::from_defines<xg::params>(defines);
  EXPECT_EQ(q.wgd, 32u);
  EXPECT_EQ(q.vwmd, 4u);
  EXPECT_FALSE(q.pada);
  EXPECT_TRUE(q.padb);
}

// Every configuration the generated space contains must pass the standalone
// validity oracle — and the space must contain every valid configuration of
// a small brute-forced sub-domain.
class XgemmSpaceOracleTest : public ::testing::TestWithParam<xg::size_mode> {};

TEST_P(XgemmSpaceOracleTest, SpaceMatchesValidityOracle) {
  const xg::size_mode mode = GetParam();
  const xg::problem prob{12, 16, 8};
  const xg::device_limits limits{256, 16 * 1024};
  auto setup = xg::make_tuning_parameters(prob, mode, limits);
  const auto space = atf::search_space::generate({setup.group()});

  // (a) Everything generated is valid.
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    const auto p = params_from<xg::params>(space.config_at(i));
    EXPECT_TRUE(xg::valid(prob, p, mode, limits))
        << "invalid config in space: " << p.to_string();
  }

  // (b) Count equals the brute-force count.
  const std::uint64_t top = 16;
  std::uint64_t oracle = 0;
  const std::uint64_t vws[] = {1, 2, 4, 8};
  for (std::uint64_t wgd = 1; wgd <= top; ++wgd)
    for (std::uint64_t mc = 1; mc <= top; ++mc)
      for (std::uint64_t nc = 1; nc <= top; ++nc)
        for (std::uint64_t ma = 1; ma <= top; ++ma)
          for (std::uint64_t nb = 1; nb <= top; ++nb)
            for (std::uint64_t kw = 1; kw <= top; ++kw)
              for (const auto vm : vws)
                for (const auto vn : vws)
                  for (int pa = 0; pa <= 1; ++pa)
                    for (int pb = 0; pb <= 1; ++pb) {
                      const xg::params p{wgd, mc, nc, ma, nb,
                                         kw,  vm, vn, pa != 0, pb != 0};
                      oracle += xg::valid(prob, p, mode, limits) ? 1 : 0;
                    }
  EXPECT_EQ(space.size(), oracle);
}

INSTANTIATE_TEST_SUITE_P(Modes, XgemmSpaceOracleTest,
                         ::testing::Values(xg::size_mode::general,
                                           xg::size_mode::restricted));

TEST(XgemmSpace, RestrictedIsSubsetOfGeneral) {
  const xg::problem prob{16, 32, 8};
  const xg::device_limits limits{256, 16 * 1024};
  auto restricted = xg::make_tuning_parameters(
      prob, xg::size_mode::restricted, limits);
  auto general =
      xg::make_tuning_parameters(prob, xg::size_mode::general, limits);
  const auto rs = atf::search_space::generate({restricted.group()});
  const auto gs = atf::search_space::generate({general.group()});
  EXPECT_LT(rs.size(), gs.size());
  for (std::uint64_t i = 0; i < rs.size(); ++i) {
    const auto p = params_from<xg::params>(rs.config_at(i));
    EXPECT_TRUE(xg::valid(prob, p, xg::size_mode::general, limits));
  }
}

TEST(XgemmLaunch, GeneralModeRoundsUp) {
  const xg::problem prob{10, 500, 64};
  xg::params p;
  p.wgd = 16;
  p.mdimcd = 4;
  p.ndimcd = 8;
  const auto range = xg::launch_range(prob, p, xg::size_mode::general);
  // ceil(10/16)=1 tile, ceil(500/16)=32 tiles.
  EXPECT_EQ(range.global[0], 1u * 4u);
  EXPECT_EQ(range.global[1], 32u * 8u);
  EXPECT_EQ(range.local[0], 4u);
  EXPECT_EQ(range.local[1], 8u);
}

TEST(XgemmLaunch, RestrictedModeDividesExactly) {
  const xg::problem prob{32, 64, 8};
  xg::params p;
  p.wgd = 16;
  p.mdimcd = 8;
  p.ndimcd = 8;
  const auto range = xg::launch_range(prob, p, xg::size_mode::restricted);
  EXPECT_EQ(range.global[0], 2u * 8u);
  EXPECT_EQ(range.global[1], 4u * 8u);
}

TEST(XgemmValidity, RejectsEachConstraintViolation) {
  const xg::problem prob{32, 32, 32};
  const auto base = [] {
    xg::params p;
    p.wgd = 16;
    p.mdimcd = 8;
    p.ndimcd = 8;
    p.mdimad = 8;
    p.ndimbd = 8;
    p.kwid = 2;
    p.vwmd = 1;
    p.vwnd = 1;
    return p;
  };
  EXPECT_TRUE(xg::valid(prob, base(), xg::size_mode::general));

  auto p = base();
  p.kwid = 3;  // (1) KWID must divide WGD
  EXPECT_FALSE(xg::valid(prob, p, xg::size_mode::general));

  p = base();
  p.mdimcd = 5;  // (2)
  EXPECT_FALSE(xg::valid(prob, p, xg::size_mode::general));

  p = base();
  p.mdimad = 16;
  p.mdimcd = 4;
  p.ndimcd = 2;  // (6): 8 threads, MDIMAD=16 does not divide
  EXPECT_FALSE(xg::valid(prob, p, xg::size_mode::general));

  p = base();
  p.vwmd = 3;  // (15): not in {1,2,4,8}
  EXPECT_FALSE(xg::valid(prob, p, xg::size_mode::general));

  p = base();
  p.vwmd = 4;  // (8): WGD=16 % (MDIMCD*VWMD=32) != 0
  EXPECT_FALSE(xg::valid(prob, p, xg::size_mode::general));

  p = base();
  p.wgd = 12;  // (17): restricted mode needs WGD | 32
  p.mdimcd = p.ndimcd = p.mdimad = p.ndimbd = 4;
  p.kwid = 2;
  EXPECT_TRUE(xg::valid(prob, p, xg::size_mode::general));
  EXPECT_FALSE(xg::valid(prob, p, xg::size_mode::restricted));

  // (12): work-group limit
  p = base();
  EXPECT_FALSE(xg::valid(prob, p, xg::size_mode::general,
                         xg::device_limits{32, 48 * 1024}));

  // (13/14): local memory
  p = base();
  EXPECT_FALSE(
      xg::valid(prob, p, xg::size_mode::general, xg::device_limits{1024, 512}));
}

// Functional correctness: the simulated kernel must compute the exact GEMM
// for valid geometries, including overhanging (ceil-rounded) tiles.
struct functional_case {
  xg::problem prob;
  xg::params p;
};

class XgemmFunctionalTest : public ::testing::TestWithParam<functional_case> {
};

TEST_P(XgemmFunctionalTest, MatchesReferenceGemm) {
  const auto& [prob, p] = GetParam();
  auto ctx =
      std::make_shared<ocls::context>(ocls::find_device("NVIDIA", "K20m"));
  ctx->execute_functionally(true);
  ocls::command_queue queue(ctx);

  auto a = std::make_shared<ocls::buffer<float>>(prob.m * prob.k);
  auto b = std::make_shared<ocls::buffer<float>>(prob.k * prob.n);
  auto c = std::make_shared<ocls::buffer<float>>(prob.m * prob.n);
  for (std::size_t i = 0; i < a->size(); ++i) {
    (*a)[i] = static_cast<float>((i * 7) % 13) - 6.0f;
  }
  for (std::size_t i = 0; i < b->size(); ++i) {
    (*b)[i] = static_cast<float>((i * 5) % 11) - 5.0f;
  }

  std::vector<float> expected(prob.m * prob.n, 0.0f);
  atf::kernels::reference::gemm(prob.m, prob.n, prob.k, a->host(), b->host(),
                                expected);

  ocls::kernel_args args{ocls::arg(static_cast<double>(prob.m)),
                         ocls::arg(static_cast<double>(prob.n)),
                         ocls::arg(static_cast<double>(prob.k)),
                         ocls::arg(a), ocls::arg(b), ocls::arg(c)};
  (void)queue.launch(xg::make_kernel(),
                     xg::launch_range(prob, p, xg::size_mode::general), args,
                     xg::make_defines(prob, p));

  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_FLOAT_EQ((*c)[i], expected[i]) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, XgemmFunctionalTest,
    ::testing::Values(
        // exact tiling
        functional_case{{16, 16, 8}, {8, 4, 4, 4, 4, 2, 1, 1, true, true}},
        // overhanging tiles in both dimensions (ceil-rounded global size)
        functional_case{{10, 50, 7}, {16, 4, 8, 4, 4, 2, 1, 1, true, false}},
        // single-thread work-groups
        functional_case{{6, 6, 6}, {3, 1, 1, 1, 1, 1, 1, 1, false, false}},
        // skinny k=1 (the paper's IS1/IS3 shape)
        functional_case{{20, 36, 1}, {4, 2, 2, 2, 2, 1, 1, 1, true, true}},
        // wide tile, few threads
        functional_case{{24, 24, 12}, {24, 2, 4, 2, 4, 8, 1, 1, true, true}}));

// --- Performance-model sanity properties ---------------------------------

double model_time(const xg::problem& prob, const xg::params& p,
                  const ocls::device& dev) {
  auto ctx = std::make_shared<ocls::context>(dev);
  ocls::command_queue queue(ctx);
  return queue
      .launch(xg::make_kernel(),
              xg::launch_range(prob, p, xg::size_mode::general), {},
              xg::make_defines(prob, p))
      .profile_ns();
}

TEST(XgemmModel, OversizedTilesWasteWork) {
  const xg::problem prob{10, 500, 64};
  xg::params small = xg::params::defaults();  // WGD=8
  xg::params big = small;
  big.wgd = 64;
  big.mdimcd = big.ndimcd = big.mdimad = big.ndimbd = 8;
  const auto gpu = ocls::find_device("NVIDIA", "K20m");
  EXPECT_GT(model_time(prob, big, gpu), model_time(prob, small, gpu));
}

TEST(XgemmModel, KPaddingPenalizesLargeTilesWhenKIsOne) {
  // The k-loop depth is rounded up to WGD, so WGD=32 does 32x the MACs of
  // k=1 — decisive for the paper's IS1/IS3 shapes.
  const xg::problem prob{20, 576, 1};
  xg::params small = xg::params::defaults();
  xg::params big = small;
  big.wgd = 32;
  const auto gpu = ocls::find_device("NVIDIA", "K20m");
  EXPECT_GT(model_time(prob, big, gpu), 1.5 * model_time(prob, small, gpu));
}

TEST(XgemmModel, CpuRewardsVectorWidth) {
  const xg::problem prob{64, 64, 64};
  xg::params scalar;
  scalar.wgd = 16;
  scalar.mdimcd = 2;
  scalar.ndimcd = 8;
  scalar.mdimad = 2;
  scalar.ndimbd = 8;
  scalar.kwid = 2;
  xg::params vectorized = scalar;
  vectorized.vwmd = 8;
  const auto cpu = ocls::find_device("Intel", "Xeon");
  EXPECT_GT(model_time(prob, scalar, cpu),
            1.5 * model_time(prob, vectorized, cpu));
}

TEST(XgemmModel, GpuCaresLessAboutVectorWidthThanCpu) {
  const xg::problem prob{64, 64, 64};
  xg::params scalar;
  scalar.wgd = 16;
  scalar.mdimcd = 2;
  scalar.ndimcd = 8;
  scalar.mdimad = 2;
  scalar.ndimbd = 8;
  scalar.kwid = 2;
  xg::params vectorized = scalar;
  vectorized.vwmd = 8;
  const auto cpu = ocls::find_device("Intel", "Xeon");
  const auto gpu = ocls::find_device("NVIDIA", "K20m");
  const double cpu_gain =
      model_time(prob, scalar, cpu) / model_time(prob, vectorized, cpu);
  const double gpu_gain =
      model_time(prob, scalar, gpu) / model_time(prob, vectorized, gpu);
  EXPECT_GT(cpu_gain, gpu_gain);
}

TEST(XgemmModel, UnrollingHelpsUpToAPoint) {
  const xg::problem prob{64, 64, 64};
  xg::params p;
  p.wgd = 32;
  p.mdimcd = p.ndimcd = p.mdimad = p.ndimbd = 8;
  xg::params unrolled = p;
  unrolled.kwid = 8;
  const auto gpu = ocls::find_device("NVIDIA", "K20m");
  EXPECT_GT(model_time(prob, p, gpu), model_time(prob, unrolled, gpu));
}

TEST(XgemmModel, PaddingAvoidsBankConflictsOnGpuOnly) {
  const xg::problem prob{64, 64, 64};
  xg::params padded;
  padded.wgd = 32;
  padded.mdimcd = padded.ndimcd = padded.mdimad = padded.ndimbd = 8;
  padded.pada = padded.padb = true;
  xg::params bare = padded;
  bare.pada = bare.padb = false;
  const auto gpu = ocls::find_device("NVIDIA", "K20m");
  const auto cpu = ocls::find_device("Intel", "Xeon");
  EXPECT_GT(model_time(prob, bare, gpu), model_time(prob, padded, gpu));
  EXPECT_DOUBLE_EQ(model_time(prob, bare, cpu), model_time(prob, padded, cpu));
}

TEST(XgemmModel, HugeTileExceedsLocalMemoryAtLaunch) {
  const xg::problem prob{256, 256, 256};
  xg::params p;
  p.wgd = 128;  // 2*128^2*4 = 128 KB > 48 KB
  p.mdimcd = p.ndimcd = p.mdimad = p.ndimbd = 8;
  p.kwid = 2;
  auto ctx =
      std::make_shared<ocls::context>(ocls::find_device("NVIDIA", "K20m"));
  ocls::command_queue queue(ctx);
  EXPECT_THROW(
      (void)queue.launch(xg::make_kernel(),
                         xg::launch_range(prob, p, xg::size_mode::general), {},
                         xg::make_defines(prob, p)),
      ocls::out_of_resources);
}

TEST(XgemmModel, UnconstrainedRangeSizes) {
  const auto tops = xg::unconstrained_range_sizes({20, 576, 25});
  ASSERT_EQ(tops.size(), 10u);
  EXPECT_EQ(tops[0], 576u);  // max extent
  EXPECT_EQ(tops[6], 4u);    // VWMD
  EXPECT_EQ(tops[9], 2u);    // PADB
  const auto capped = xg::unconstrained_range_sizes({20, 576, 25}, 64);
  EXPECT_EQ(capped[0], 64u);
}

// Full-mantissa operands in [-1, 1), where a change in the order of the
// float additions shows in the low bits.
std::vector<float> mixed_floats(std::size_t count, std::uint64_t seed) {
  std::vector<float> values(count);
  for (auto& value : values) {
    seed = seed * 6364136223846793005ull + 1442695040888963407ull;
    value = static_cast<float>(seed >> 40) / float(1 << 23) - 1.0f;
  }
  return values;
}

TEST(ReferenceGemm, BitIdenticalToTheInnerProductLoop) {
  struct shape {
    std::size_t m, n, k;
  };
  for (const shape s : {shape{128, 128, 256}, shape{128, 256, 128},
                        shape{256, 128, 128}, shape{64, 64, 64},
                        shape{37, 29, 53}}) {
    const auto a = mixed_floats(s.m * s.k, 1);
    const auto b = mixed_floats(s.k * s.n, 2);
    // The i-j-p loop with one add chain per element.
    std::vector<float> expected(s.m * s.n);
    for (std::size_t i = 0; i < s.m; ++i) {
      for (std::size_t j = 0; j < s.n; ++j) {
        float acc = 0.0f;
        for (std::size_t p = 0; p < s.k; ++p) {
          acc += a[i * s.k + p] * b[p * s.n + j];
        }
        expected[i * s.n + j] = acc;
      }
    }
    std::vector<float> c(s.m * s.n, 7.0f);  // overwritten, not added to
    atf::kernels::reference::gemm(s.m, s.n, s.k, a, b, c);
    EXPECT_EQ(std::memcmp(c.data(), expected.data(), c.size() * sizeof(float)),
              0)
        << s.m << "x" << s.n << "x" << s.k;
  }
}

}  // namespace
