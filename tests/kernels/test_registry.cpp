// Tests for the kernel registry: name round-trips, input-size parsing, space
// construction for every registered family, fixed-seed tuning determinism,
// and the acceptance property of the suite — each new family tunes end to
// end on at least two device profiles and its tuned best passes the
// functional reference check.
#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "atf/kernels/registry.hpp"
#include "atf/search_space.hpp"
#include "atf/tuner.hpp"
#include "ocls/ocls.hpp"

namespace {

namespace reg = atf::kernels::registry;

/// Small per-family sizes that keep space generation in the milliseconds.
const std::map<std::string, std::string>& small_sizes() {
  static const std::map<std::string, std::string> sizes = {
      {"saxpy", "4096"},         {"reduce", "4096"},
      {"xgemm", "16x16x16"},     {"conv2d", "16x16x3x3"},
      {"stencil2d", "20x20x2"},  {"spmv", "256x8"},
      {"batched_gemm", "32x8x8x8"},
  };
  return sizes;
}

TEST(RegistryTable, AllFamiliesRegisteredAndFindable) {
  const auto& entries = reg::all();
  ASSERT_EQ(entries.size(), 7u);
  const std::vector<std::string> expected = {
      "saxpy",     "reduce", "xgemm",       "conv2d",
      "stencil2d", "spmv",   "batched_gemm"};
  EXPECT_EQ(reg::names(), expected);
  for (const auto& e : entries) {
    const reg::entry* found = reg::find(e.name);
    ASSERT_NE(found, nullptr) << e.name;
    EXPECT_EQ(found->name, e.name);
    EXPECT_FALSE(found->description.empty());
    EXPECT_FALSE(found->dim_names.empty());
    // Size descriptor round-trip: to_string . parse == identity.
    const auto reparsed = reg::input_size::parse(e.default_size.to_string());
    EXPECT_EQ(reparsed.dims, e.default_size.dims) << e.name;
  }
  EXPECT_EQ(reg::find("not_a_kernel"), nullptr);
}

TEST(RegistryTable, InputSizeParsing) {
  EXPECT_EQ(reg::input_size::parse("64").dims,
            (std::vector<std::uint64_t>{64}));
  EXPECT_EQ(reg::input_size::parse("8x16x32").dims,
            (std::vector<std::uint64_t>{8, 16, 32}));
  EXPECT_EQ(reg::input_size::parse("8X16").dims,
            (std::vector<std::uint64_t>{8, 16}));
  EXPECT_THROW((void)reg::input_size::parse(""), std::invalid_argument);
  EXPECT_THROW((void)reg::input_size::parse("8x"), std::invalid_argument);
  EXPECT_THROW((void)reg::input_size::parse("0x4"), std::invalid_argument);
  EXPECT_THROW((void)reg::input_size::parse("axb"), std::invalid_argument);
  EXPECT_THROW((void)reg::input_size::parse("4xx8"), std::invalid_argument);
  // Digits only: stoull alone would wrap "-3" to 2^64-3 and skip the
  // whitespace and sign.
  for (const char* bad : {"-3", " -3", " 3", "+3", "3 ", "8x-3",
                          "99999999999999999999", "4x18446744073709551616"}) {
    EXPECT_THROW((void)reg::input_size::parse(bad), std::invalid_argument)
        << "'" << bad << "'";
  }
  EXPECT_EQ(reg::input_size::parse("18446744073709551615").dims,
            (std::vector<std::uint64_t>{18446744073709551615ull}));
}

TEST(RegistryTable, MakeTechniqueKnowsTheCliNames) {
  for (const auto* name :
       {"exhaustive", "annealing", "opentuner", "surrogate", "random"}) {
    EXPECT_NE(reg::make_technique(name, 1), nullptr) << name;
  }
  EXPECT_THROW((void)reg::make_technique("bogus", 1), std::invalid_argument);
}

TEST(RegistrySpaces, EveryFamilyBuildsItsSpaceAndCost) {
  const auto dev = ocls::find_device("NVIDIA", "K20m");
  for (const auto& e : reg::all()) {
    const auto size = reg::input_size::parse(small_sizes().at(e.name));
    auto groups = e.make_groups(size, dev.profile());
    ASSERT_FALSE(groups.empty()) << e.name;
    const auto space = atf::search_space::generate(std::move(groups));
    ASSERT_GT(space.size(), 0u) << e.name;
    // One configuration carries exactly the family's advertised knobs.
    EXPECT_EQ(space.config_at(0).size(), e.knob_count) << e.name;
    // The cost function evaluates the first configuration to a finite time
    // (or reports it as a failed evaluation, never anything else).
    auto cost = e.make_cost(size, dev);
    try {
      const double ns = cost(space.config_at(0));
      EXPECT_GT(ns, 0.0) << e.name;
    } catch (const atf::evaluation_error&) {
      // An invalid-at-launch first config is a legitimate outcome.
    }
    // Wrong dimensionality is rejected up front.
    reg::input_size wrong;
    wrong.dims.assign(size.dims.size() + 1, 4);
    EXPECT_THROW((void)e.make_groups(wrong, dev.profile()),
                 std::invalid_argument)
        << e.name;
  }
}

TEST(RegistryTune, ExhaustiveSweepCoversTheWholeSpace) {
  const auto dev = ocls::find_device("", "Iris");
  const reg::entry* e = reg::find("spmv");
  ASSERT_NE(e, nullptr);
  reg::tune_settings settings;  // exhaustive, evaluations = 0 -> full sweep
  const auto outcome =
      reg::tune(*e, reg::input_size::parse("256x8"), dev, settings);
  EXPECT_EQ(outcome.space_size, 384u);  // pinned: Iris 6100 SpMV space
  EXPECT_EQ(outcome.evaluations, outcome.space_size);
  EXPECT_FALSE(outcome.best.empty());
  EXPECT_GT(outcome.best_ns, 0.0);
}

TEST(RegistryTune, FixedSeedRunsAreDeterministic) {
  const auto dev = ocls::find_device("NVIDIA", "K20m");
  const reg::entry* e = reg::find("stencil2d");
  ASSERT_NE(e, nullptr);
  const auto size = reg::input_size::parse("20x20x2");
  reg::tune_settings settings;
  settings.technique = "annealing";
  settings.evaluations = 60;
  settings.seed = 42;
  const auto first = reg::tune(*e, size, dev, settings);
  const auto second = reg::tune(*e, size, dev, settings);
  EXPECT_EQ(first.best, second.best);
  EXPECT_EQ(first.best_ns, second.best_ns);
  EXPECT_EQ(first.evaluations, second.evaluations);
  EXPECT_EQ(first.failed_evaluations, second.failed_evaluations);
}

// The suite's acceptance property: each new family tunes end to end on two
// structurally different profiles and the tuned best reproduces the scalar
// reference functionally.
TEST(RegistryTune, NewFamiliesTuneOnTwoProfilesAndPassReference) {
  for (const auto* device_name : {"K20m", "Vega"}) {
    const auto dev = ocls::find_device("", device_name);
    for (const auto* family : {"stencil2d", "spmv", "batched_gemm"}) {
      const reg::entry* e = reg::find(family);
      ASSERT_NE(e, nullptr) << family;
      const auto size = reg::input_size::parse(small_sizes().at(family));
      reg::tune_settings settings;
      settings.technique = "annealing";
      settings.evaluations = 80;
      settings.seed = 7;
      const auto outcome = reg::tune(*e, size, dev, settings);
      ASSERT_FALSE(outcome.best.empty())
          << family << " on " << device_name;
      EXPECT_TRUE(e->reference_check(size, dev, outcome.best))
          << family << " on " << device_name << ": "
          << outcome.best.to_string();
    }
  }
}

}  // namespace
