// Integration tests: end-to-end tuning runs across all modules — the
// Listing 2 saxpy pipeline on the simulated device, a small XgemmDirect
// tuning whose exhaustive optimum is verified against a brute-force oracle,
// ATF-vs-baseline ordering, and multi-objective tuning through the OpenCL
// cost function.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "atf/atf.hpp"
#include "atf/cf/ocl.hpp"
#include "atf/kernels/saxpy.hpp"
#include "atf/kernels/xgemm_direct.hpp"
#include "atf/search/opentuner_search.hpp"
#include "atf/search/simulated_annealing.hpp"
#include "baselines/opentuner_like.hpp"

namespace {

namespace sx = atf::kernels::saxpy;
namespace xg = atf::kernels::xgemm;
using atf::kernels::params_from;

TEST(Integration, SaxpyListing2EndToEnd) {
  const std::size_t n = 1 << 16;
  auto setup = sx::make_tuning_parameters(n);
  auto cf = atf::cf::ocl("NVIDIA", "Tesla K20", sx::make_kernel())
                .inputs(atf::cf::scalar<std::size_t>(n),
                        atf::cf::scalar<float>(), atf::cf::buffer<float>(n),
                        atf::cf::buffer<float>(n))
                .glb_size(n / setup.wpt)
                .lcl_size(setup.ls);

  atf::tuner tuner;
  tuner.tuning_parameters(setup.wpt, setup.ls);
  auto result = tuner.tune(cf);  // exhaustive over the full space

  ASSERT_TRUE(result.has_best());
  const std::size_t best_wpt = result.best_configuration()["WPT"];
  const std::size_t best_ls = result.best_configuration()["LS"];
  EXPECT_EQ(n % best_wpt, 0u);
  EXPECT_EQ((n / best_wpt) % best_ls, 0u);
  // The naive configuration must be strictly worse than the optimum.
  setup.wpt.set_current(1);
  setup.ls.set_current(1);
  atf::configuration naive;
  naive.add("WPT", atf::to_tp_value(std::size_t{1}));
  naive.add("LS", atf::to_tp_value(std::size_t{1}));
  EXPECT_GT(cf(naive), *result.best_cost);
}

TEST(Integration, ExhaustiveEqualsBruteForceOracleOnSmallGemm) {
  const xg::problem prob{16, 16, 16};
  const xg::device_limits limits{64, 8 * 1024};
  const auto dev = ocls::find_device("NVIDIA", "K20m");

  auto measure = [&](const xg::params& p) -> double {
    auto ctx = std::make_shared<ocls::context>(dev);
    ocls::command_queue queue(ctx);
    try {
      return queue
          .launch(xg::make_kernel(),
                  xg::launch_range(prob, p, xg::size_mode::general), {},
                  xg::make_defines(prob, p))
          .profile_ns();
    } catch (const ocls::error&) {
      return std::numeric_limits<double>::infinity();
    }
  };

  // Tuner path.
  auto setup =
      xg::make_tuning_parameters(prob, xg::size_mode::general, limits);
  atf::tuner tuner;
  tuner.tuning_parameters(setup.group());
  auto result = tuner.tune([&](const atf::configuration& config) {
    const double ns = measure(params_from<xg::params>(config));
    if (!std::isfinite(ns)) {
      throw atf::evaluation_error("launch failed");
    }
    return ns;
  });

  // Oracle path: brute-force the whole sub-domain.
  double oracle = std::numeric_limits<double>::infinity();
  const std::uint64_t vws[] = {1, 2, 4, 8};
  for (std::uint64_t wgd = 1; wgd <= 16; ++wgd)
    for (std::uint64_t mc = 1; mc <= 16; ++mc)
      for (std::uint64_t nc = 1; nc <= 16; ++nc)
        for (std::uint64_t ma = 1; ma <= 16; ++ma)
          for (std::uint64_t nb = 1; nb <= 16; ++nb)
            for (std::uint64_t kw = 1; kw <= 16; ++kw)
              for (const auto vm : vws)
                for (const auto vn : vws)
                  for (int pa = 0; pa <= 1; ++pa)
                    for (int pb = 0; pb <= 1; ++pb) {
                      const xg::params p{wgd, mc, nc, ma, nb,
                                         kw,  vm, vn, pa != 0, pb != 0};
                      if (!xg::valid(prob, p, xg::size_mode::general,
                                     limits)) {
                        continue;
                      }
                      oracle = std::min(oracle, measure(p));
                    }

  ASSERT_TRUE(result.has_best());
  EXPECT_DOUBLE_EQ(*result.best_cost, oracle)
      << "exhaustive search must find the provably best configuration";
}

TEST(Integration, AtfBeatsPenaltyBasedOpenTunerOnConstrainedGemm) {
  const xg::problem prob = xg::caffe_input_size(3);  // smallest space
  const auto dev = ocls::find_device("NVIDIA", "K20m");
  const auto limits = xg::device_limits::of(dev.profile());

  auto measure = [&](const xg::params& p) -> double {
    auto ctx = std::make_shared<ocls::context>(dev);
    ocls::command_queue queue(ctx);
    try {
      return queue
          .launch(xg::make_kernel(),
                  xg::launch_range(prob, p, xg::size_mode::general), {},
                  xg::make_defines(prob, p))
          .profile_ns();
    } catch (const ocls::error&) {
      return std::numeric_limits<double>::infinity();
    }
  };

  // ATF: constrained space + annealing, small budget.
  auto setup =
      xg::make_tuning_parameters(prob, xg::size_mode::general, limits);
  atf::tuner tuner;
  tuner.tuning_parameters(setup.group());
  tuner.search_technique(
      std::make_unique<atf::search::simulated_annealing>(4.0, 5));
  tuner.abort_condition(atf::cond::evaluations(3'000));
  auto atf_result = tuner.tune([&](const atf::configuration& config) {
    const double ns = measure(params_from<xg::params>(config));
    if (!std::isfinite(ns)) {
      throw atf::evaluation_error("launch failed");
    }
    return ns;
  });

  // OpenTuner baseline: unconstrained + penalty, same budget; expected to
  // find no valid configuration, so the kernel keeps its defaults.
  baselines::opentuner::tuner baseline;
  const auto tops = xg::unconstrained_range_sizes(prob);
  baseline.add_parameter_range("WGD", tops[0]);
  baseline.add_parameter_range("MDIMCD", tops[1]);
  baseline.add_parameter_range("NDIMCD", tops[2]);
  baseline.add_parameter_range("MDIMAD", tops[3]);
  baseline.add_parameter_range("NDIMBD", tops[4]);
  baseline.add_parameter_range("KWID", tops[5]);
  baseline.add_parameter("VWMD", {1, 2, 4, 8});
  baseline.add_parameter("VWND", {1, 2, 4, 8});
  baseline.add_parameter("PADA", {0, 1});
  baseline.add_parameter("PADB", {0, 1});
  const double penalty = 1e15;
  const auto ot_result = baseline.run(
      3'000, penalty,
      [&](const baselines::opentuner::configuration& c) {
        const auto p = atf::kernels::params_from_values<xg::params>(c);
        if (!xg::valid(prob, p, xg::size_mode::general, limits)) {
          return penalty;
        }
        const double ns = measure(p);
        return std::isfinite(ns) ? ns : penalty;
      },
      17);

  const double opentuner_ns = ot_result.found_valid
                                  ? ot_result.best_cost
                                  : measure(xg::params::defaults());
  ASSERT_TRUE(atf_result.has_best());
  EXPECT_LT(*atf_result.best_cost, opentuner_ns);
}

TEST(Integration, MultiObjectiveTuningThroughOclCostFunction) {
  const std::size_t n = 1 << 14;
  auto setup = sx::make_tuning_parameters(n);
  auto cf = atf::cf::ocl("NVIDIA", "Tesla K20", sx::make_kernel())
                .inputs(atf::cf::scalar<std::size_t>(n),
                        atf::cf::scalar<float>(), atf::cf::buffer<float>(n),
                        atf::cf::buffer<float>(n))
                .glb_size(n / setup.wpt)
                .lcl_size(setup.ls);

  atf::tuner tuner;
  tuner.tuning_parameters(setup.wpt, setup.ls);
  auto result = tuner.tune([&](const atf::configuration& config) {
    return cf.runtime_energy(config);
  });

  ASSERT_TRUE(result.has_best());
  // Pure runtime tuning must agree on the primary objective.
  atf::tuner runtime_tuner;
  auto setup2 = sx::make_tuning_parameters(n);
  auto cf2 = atf::cf::ocl("NVIDIA", "Tesla K20", sx::make_kernel())
                 .inputs(atf::cf::scalar<std::size_t>(n),
                         atf::cf::scalar<float>(), atf::cf::buffer<float>(n),
                         atf::cf::buffer<float>(n))
                 .glb_size(n / setup2.wpt)
                 .lcl_size(setup2.ls);
  runtime_tuner.tuning_parameters(setup2.wpt, setup2.ls);
  auto runtime_result = runtime_tuner.tune(cf2);
  EXPECT_DOUBLE_EQ(result.best_cost->primary, *runtime_result.best_cost);
}

TEST(Integration, TuningLogCapturesEveryEvaluation) {
  const std::string path = ::testing::TempDir() + "atf_integration_log.csv";
  const std::size_t n = 4096;
  auto setup = sx::make_tuning_parameters(n);
  auto cf = atf::cf::ocl("NVIDIA", "Tesla K20", sx::make_kernel())
                .inputs(atf::cf::scalar<std::size_t>(n),
                        atf::cf::scalar<float>(), atf::cf::buffer<float>(n),
                        atf::cf::buffer<float>(n))
                .glb_size(n / setup.wpt)
                .lcl_size(setup.ls);
  atf::tuner tuner;
  tuner.tuning_parameters(setup.wpt, setup.ls);
  tuner.log_file(path);
  auto result = tuner.tune(cf);

  std::ifstream in(path);
  ASSERT_TRUE(in.good());
  std::string line;
  std::getline(in, line);  // header
  std::uint64_t rows = 0;
  std::uint64_t failed = 0;
  while (std::getline(in, line)) {
    ++rows;
    if (line.find("failed") != std::string::npos) {
      ++failed;
    }
  }
  EXPECT_EQ(rows, result.evaluations);
  EXPECT_EQ(failed, result.failed_evaluations);
  std::remove(path.c_str());
}

}  // namespace
