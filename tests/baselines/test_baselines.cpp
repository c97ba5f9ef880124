// Tests for the baseline tuners: the CLTune-like product-then-filter
// generator (its API, its empty-space behaviour, its generation budget) and
// the OpenTuner-like unconstrained-with-penalty ensemble.
#include <gtest/gtest.h>

#include "atf/kernels/xgemm_direct.hpp"
#include "baselines/cltune_like.hpp"
#include "baselines/opentuner_like.hpp"
#include "ocls/ocls.hpp"

namespace {

namespace ct = baselines::cltune;
namespace ot = baselines::opentuner;
namespace xg = atf::kernels::xgemm;

ocls::kernel constant_kernel(double ns) {
  ocls::kernel k("constant");
  k.set_perf_model([ns](const ocls::nd_range&, const ocls::device_profile&,
                        const ocls::define_map&) {
    return ocls::perf_estimate{ns, 0.5};
  });
  return k;
}

/// A kernel whose modeled time is (A-5)^2 + B read from the defines, so the
/// best configuration is known exactly.
ocls::kernel quadratic_kernel() {
  ocls::kernel k("quadratic");
  k.set_perf_model([](const ocls::nd_range&, const ocls::device_profile&,
                      const ocls::define_map& defines) {
    const double a = static_cast<double>(defines.get_uint("A"));
    const double b = static_cast<double>(defines.get_uint("B"));
    return ocls::perf_estimate{(a - 5) * (a - 5) * 100 + b * 10 + 1, 0.5};
  });
  return k;
}

TEST(CltuneLike, FullSearchFindsBestValidConfig) {
  ct::tuner tuner(ocls::find_device("NVIDIA", "K20m"));
  (void)tuner.AddKernel(quadratic_kernel(), {64}, {1});
  tuner.AddParameter(0, "A", {1, 2, 3, 4, 5, 6, 7, 8});
  tuner.AddParameter(0, "B", {0, 1, 2, 3});
  // Constraint: A must be even.
  tuner.AddConstraint(0, [](std::vector<std::size_t> v) {
    return v[0] % 2 == 0;
  }, {"A"});
  tuner.UseFullSearch();
  tuner.Tune();
  const auto best = tuner.GetBestResult();
  EXPECT_EQ(best.at("A"), 4u);  // closest even value to 5
  EXPECT_EQ(best.at("B"), 0u);
  const auto& report = tuner.GetGenerationReport();
  EXPECT_TRUE(report.completed);
  EXPECT_EQ(report.candidates_enumerated, 32u);  // FULL product, then filter
  EXPECT_EQ(report.valid, 16u);
}

TEST(CltuneLike, EmptySpaceThrows) {
  ct::tuner tuner(ocls::find_device("NVIDIA", "K20m"));
  (void)tuner.AddKernel(constant_kernel(1000), {64}, {1});
  tuner.AddParameter(0, "A", {1, 3, 5});
  tuner.AddConstraint(0, [](std::vector<std::size_t> v) {
    return v[0] % 2 == 0;
  }, {"A"});
  EXPECT_THROW(tuner.Tune(), ct::empty_space);
}

TEST(CltuneLike, GenerationBudgetAborts) {
  ct::tuner tuner(ocls::find_device("NVIDIA", "K20m"));
  (void)tuner.AddKernel(constant_kernel(1000), {64}, {1});
  // 100^5 = 10^10 candidates: must hit the candidate budget quickly.
  std::vector<std::size_t> big(100);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = i + 1;
  }
  for (const char* name : {"A", "B", "C", "D", "E"}) {
    tuner.AddParameter(0, name, big);
  }
  tuner.SetGenerationBudget(0.0, 100'000);
  EXPECT_THROW(tuner.Tune(), ct::generation_aborted);
}

TEST(CltuneLike, ProductSizeSaturates) {
  ct::tuner tuner(ocls::find_device("NVIDIA", "K20m"));
  (void)tuner.AddKernel(constant_kernel(1000), {64}, {1});
  std::vector<std::size_t> big(1u << 16);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = i + 1;
  }
  for (const char* name : {"A", "B", "C", "D", "E"}) {
    tuner.AddParameter(0, name, big);
  }
  EXPECT_EQ(tuner.ProductSize(), std::numeric_limits<std::uint64_t>::max());
}

TEST(CltuneLike, DivGlobalMulLocalGeometry) {
  // Geometry model check: base global {64}, DivGlobalSize(WPT),
  // MulLocalSize(LS) — the Listing 3 pattern. Use a perf model that
  // reports the geometry so we can assert it.
  ocls::kernel probe("probe");
  probe.set_perf_model([](const ocls::nd_range& r,
                          const ocls::device_profile&,
                          const ocls::define_map&) {
    return ocls::perf_estimate{
        static_cast<double>(r.global[0] * 1000 + r.local[0]), 0.5};
  });
  ct::tuner tuner(ocls::find_device("NVIDIA", "K20m"));
  (void)tuner.AddKernel(probe, {64}, {1});
  tuner.AddParameter(0, "WPT", {4});
  tuner.AddParameter(0, "LS", {8});
  tuner.DivGlobalSize(0, {"WPT"});
  tuner.MulLocalSize(0, {"LS"});
  tuner.UseFullSearch();
  tuner.Tune();
  // global 64/4 = 16, local 8 -> modeled cost 16*1000 + 8 + launch overhead.
  const double launch =
      ocls::find_device("NVIDIA", "K20m").profile().launch_overhead_ns;
  EXPECT_DOUBLE_EQ(tuner.GetBestCost(), 16008.0 + launch);
}

TEST(CltuneLike, InvalidGeometriesGetInfiniteCost) {
  ct::tuner tuner(ocls::find_device("NVIDIA", "K20m"));
  (void)tuner.AddKernel(constant_kernel(500), {64}, {1});
  tuner.AddParameter(0, "LS", {7, 8});  // 7 does not divide 64
  tuner.MulLocalSize(0, {"LS"});
  tuner.UseFullSearch();
  tuner.Tune();
  EXPECT_EQ(tuner.GetBestResult().at("LS"), 8u);
}

TEST(CltuneLike, AnnealingExploresFraction) {
  ct::tuner tuner(ocls::find_device("NVIDIA", "K20m"));
  (void)tuner.AddKernel(quadratic_kernel(), {64}, {1});
  std::vector<std::size_t> values(64);
  for (std::size_t i = 0; i < values.size(); ++i) {
    values[i] = i + 1;
  }
  tuner.AddParameter(0, "A", values);
  tuner.AddParameter(0, "B", {0, 1, 2, 3});
  tuner.UseAnnealing(0.5, 4.0);
  tuner.SetSeed(11);
  tuner.Tune();
  const auto best = tuner.GetBestResult();
  // Half the space explored: the result must at least be near-optimal.
  EXPECT_LE(best.at("A"), 8u);
}

TEST(CltuneLike, UnknownParameterInConstraintThrows) {
  ct::tuner tuner(ocls::find_device("NVIDIA", "K20m"));
  (void)tuner.AddKernel(constant_kernel(1), {64}, {1});
  tuner.AddParameter(0, "A", {1});
  EXPECT_THROW(tuner.AddConstraint(
                   0, [](std::vector<std::size_t>) { return true; }, {"ZZZ"}),
               std::invalid_argument);
  EXPECT_THROW(tuner.DivGlobalSize(0, {"ZZZ"}), std::invalid_argument);
}

TEST(CltuneLike, TuneWithoutKernelThrows) {
  ct::tuner tuner(ocls::find_device("NVIDIA", "K20m"));
  EXPECT_THROW(tuner.Tune(), std::logic_error);
}

// --- OpenTuner-like baseline ----------------------------------------------

TEST(OpenTunerLike, FindsOptimumOnUnconstrainedSpace) {
  ot::tuner tuner;
  tuner.add_parameter_range("A", 64);
  tuner.add_parameter_range("B", 64);
  const auto result = tuner.run(
      2'000, 1e12,
      [](const ot::configuration& c) {
        const double a = static_cast<double>(c.at("A"));
        const double b = static_cast<double>(c.at("B"));
        return (a - 30) * (a - 30) + (b - 40) * (b - 40);
      },
      7);
  ASSERT_TRUE(result.found_valid);
  EXPECT_LT(result.best_cost, 25.0);
  EXPECT_EQ(result.evaluations, 2'000u);
}

TEST(OpenTunerLike, PenaltyDominatedSpaceFindsNothing) {
  // The paper's effect: valid configurations are a vanishing fraction, so
  // the penalty-driven search finds none.
  ot::tuner tuner;
  tuner.add_parameter_range("A", 10'000);
  tuner.add_parameter_range("B", 10'000);
  const double penalty = 1e12;
  const auto result = tuner.run(
      1'000, penalty,
      [&](const ot::configuration& c) {
        // Valid only on an exact diagonal point: density 1e-8.
        if (c.at("A") == 7777 && c.at("B") == 3333) {
          return 1.0;
        }
        return penalty;
      },
      5);
  EXPECT_FALSE(result.found_valid);
  EXPECT_EQ(result.valid_evaluations, 0u);
}

TEST(OpenTunerLike, XgemmUnconstrainedFindsNoValidConfig) {
  // End-to-end reproduction of the Section VI observation on the real
  // parameter space (IS4-sized ranges, 1,000 evaluations for test speed;
  // the bench runs the paper's 10,000).
  const xg::problem prob = xg::caffe_input_size(4);
  ot::tuner tuner;
  const auto tops = xg::unconstrained_range_sizes(prob);
  const char* names[] = {"WGD", "MDIMCD", "NDIMCD", "MDIMAD", "NDIMBD",
                         "KWID"};
  for (int i = 0; i < 6; ++i) {
    tuner.add_parameter_range(names[i], tops[i]);
  }
  tuner.add_parameter("VWMD", {1, 2, 4, 8});
  tuner.add_parameter("VWND", {1, 2, 4, 8});
  tuner.add_parameter("PADA", {0, 1});
  tuner.add_parameter("PADB", {0, 1});

  const double penalty = 1e15;
  const auto result = tuner.run(
      1'000, penalty,
      [&](const ot::configuration& c) {
        const auto p = atf::kernels::params_from_values<xg::params>(c);
        return xg::valid(prob, p, xg::size_mode::general) ? 1.0 : penalty;
      },
      13);
  EXPECT_FALSE(result.found_valid);
}

TEST(OpenTunerLike, ReproducibleForFixedSeed) {
  auto run = [] {
    ot::tuner tuner;
    tuner.add_parameter_range("A", 100);
    return tuner
        .run(200, 1e9,
             [](const ot::configuration& c) {
               return static_cast<double>(c.at("A") % 17);
             },
             3)
        .best_cost;
  };
  EXPECT_EQ(run(), run());
}

TEST(OpenTunerLike, EmptyParameterListThrows) {
  ot::tuner tuner;
  EXPECT_THROW(
      (void)tuner.run(10, 1.0,
                      [](const ot::configuration&) { return 0.0; }),
      std::logic_error);
  EXPECT_THROW(tuner.add_parameter("A", {}), std::invalid_argument);
}

TEST(OpenTunerLike, SpaceSizeSaturates) {
  ot::tuner tuner;
  for (const char* name : {"A", "B", "C", "D", "E", "F"}) {
    tuner.add_parameter_range(name, 1'000'000);
  }
  EXPECT_EQ(tuner.space_size(), std::numeric_limits<std::uint64_t>::max());
}

}  // namespace
