// Tests for the direct-convolution workload: space vs validity oracle,
// functional correctness against a scalar reference, local-memory guard,
// and model sanity.
#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "atf/kernels/conv2d.hpp"
#include "atf/search_space.hpp"
#include "ocls/ocls.hpp"

namespace {

namespace cv = atf::kernels::conv2d;
using atf::kernels::params_from;

std::vector<float> reference_conv(const cv::problem& prob,
                                  const std::vector<float>& in,
                                  const std::vector<float>& flt) {
  std::vector<float> out(prob.out_height() * prob.out_width(), 0.0f);
  for (std::size_t y = 0; y < prob.out_height(); ++y) {
    for (std::size_t x = 0; x < prob.out_width(); ++x) {
      float acc = 0.0f;
      for (std::size_t r = 0; r < prob.filter_height; ++r) {
        for (std::size_t s = 0; s < prob.filter_width; ++s) {
          acc += in[(y + r) * prob.width + (x + s)] *
                 flt[r * prob.filter_width + s];
        }
      }
      out[y * prob.out_width() + x] = acc;
    }
  }
  return out;
}

TEST(Conv2dProblem, OutputShape) {
  const cv::problem prob{32, 48, 5, 3};
  EXPECT_EQ(prob.out_height(), 28u);
  EXPECT_EQ(prob.out_width(), 46u);
}

TEST(Conv2dSpace, EveryGeneratedConfigIsValid) {
  const cv::problem prob{16, 20, 3, 3};
  auto setup = cv::make_tuning_parameters(prob, 64, 2048);
  const auto space = atf::search_space::generate(setup.groups());
  ASSERT_GT(space.size(), 0u);
  for (std::uint64_t i = 0; i < space.size(); ++i) {
    const auto p = params_from<cv::params>(space.config_at(i));
    EXPECT_TRUE(cv::valid(prob, p, 64, 2048));
  }
}

TEST(Conv2dSpace, CountMatchesBruteForceOracle) {
  const cv::problem prob{10, 12, 3, 3};
  const std::size_t max_wg = 32;
  const std::size_t lmem = 1024;
  auto setup = cv::make_tuning_parameters(prob, max_wg, lmem);
  const auto space = atf::search_space::generate(setup.groups());

  std::uint64_t oracle = 0;
  const std::uint64_t vws[] = {1, 2, 4, 8};
  for (std::uint64_t tbx = 1; tbx <= prob.out_width(); ++tbx)
    for (std::uint64_t lx = 1; lx <= prob.out_width(); ++lx)
      for (const auto vecx : vws)
        for (std::uint64_t tby = 1; tby <= prob.out_height(); ++tby)
          for (std::uint64_t ly = 1; ly <= prob.out_height(); ++ly)
            for (std::uint64_t unroll = 1; unroll <= prob.filter_height;
                 ++unroll)
              for (int lm = 0; lm <= 1; ++lm) {
                const cv::params p{tbx, tby, lx, ly, vecx, unroll, lm != 0};
                oracle += cv::valid(prob, p, max_wg, lmem) ? 1 : 0;
              }
  EXPECT_EQ(space.size(), oracle);
}

class Conv2dFunctionalTest
    : public ::testing::TestWithParam<cv::params> {};

TEST_P(Conv2dFunctionalTest, MatchesReference) {
  const cv::problem prob{14, 18, 3, 5};
  std::vector<float> in(prob.height * prob.width);
  std::vector<float> flt(prob.filter_height * prob.filter_width);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<float>((i * 3) % 7) - 3.0f;
  }
  for (std::size_t i = 0; i < flt.size(); ++i) {
    flt[i] = static_cast<float>(i % 4) * 0.5f - 0.75f;
  }
  const auto expected = reference_conv(prob, in, flt);

  auto ctx =
      std::make_shared<ocls::context>(ocls::find_device("NVIDIA", "K20m"));
  ctx->execute_functionally(true);
  ocls::command_queue queue(ctx);

  auto in_buf = std::make_shared<ocls::buffer<float>>(in);
  auto flt_buf = std::make_shared<ocls::buffer<float>>(flt);
  auto out_buf = std::make_shared<ocls::buffer<float>>(expected.size());
  ocls::kernel_args args{ocls::arg(static_cast<double>(prob.height)),
                         ocls::arg(static_cast<double>(prob.width)),
                         ocls::arg(static_cast<double>(prob.filter_height)),
                         ocls::arg(static_cast<double>(prob.filter_width)),
                         ocls::arg(in_buf), ocls::arg(flt_buf),
                         ocls::arg(out_buf)};
  const auto p = GetParam();
  (void)queue.launch(cv::make_kernel(), cv::launch_range(prob, p), args,
                     cv::make_defines(prob, p));
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_FLOAT_EQ((*out_buf)[i], expected[i]) << "element " << i;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Geometries, Conv2dFunctionalTest,
    ::testing::Values(cv::params{4, 4, 4, 4, 1, 1, true},
                      cv::params{8, 6, 2, 3, 1, 3, false},
                      cv::params{16, 12, 4, 4, 2, 1, true},
                      cv::params{1, 1, 1, 1, 1, 1, false}));

TEST(Conv2dModel, LocalMemoryGuardAtLaunch) {
  const cv::problem prob{256, 256, 9, 9};
  cv::params p;
  p.tbx = 128;
  p.tby = 128;  // staged tile (136)^2 * 4 ~ 74 KB > 48 KB
  p.lx = p.ly = 8;
  p.use_lmem = true;
  auto ctx =
      std::make_shared<ocls::context>(ocls::find_device("NVIDIA", "K20m"));
  ocls::command_queue queue(ctx);
  EXPECT_THROW((void)queue.launch(cv::make_kernel(), cv::launch_range(prob, p),
                                  {}, cv::make_defines(prob, p)),
               ocls::out_of_resources);
  p.use_lmem = false;  // without staging the same tile is fine
  EXPECT_NO_THROW((void)queue.launch(cv::make_kernel(),
                                     cv::launch_range(prob, p), {},
                                     cv::make_defines(prob, p)));
}

TEST(Conv2dModel, LmemStagingBeatsGlobalRereadsOnGpu) {
  const cv::problem prob{128, 128, 7, 7};
  cv::params staged;
  staged.tbx = staged.tby = 16;
  staged.lx = staged.ly = 8;
  staged.use_lmem = true;
  cv::params unstaged = staged;
  unstaged.use_lmem = false;

  auto ctx =
      std::make_shared<ocls::context>(ocls::find_device("NVIDIA", "K20m"));
  ocls::command_queue queue(ctx);
  const double t_staged =
      queue.launch(cv::make_kernel(), cv::launch_range(prob, staged), {},
                   cv::make_defines(prob, staged))
          .profile_ns();
  const double t_unstaged =
      queue.launch(cv::make_kernel(), cv::launch_range(prob, unstaged), {},
                   cv::make_defines(prob, unstaged))
          .profile_ns();
  EXPECT_LE(t_staged, t_unstaged);
}

}  // namespace
