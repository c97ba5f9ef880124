// Tests for the per-family knob tables and the generic adapter that drives
// them (atf/kernels/knobs.hpp): one typed case per family. Every knob of a
// family's params survives the trip through a configuration and through the
// simulator's define map exactly, and a missing knob is an error, not a
// silently kept default.
#include <gtest/gtest.h>

#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <type_traits>

#include "atf/kernels/batched_gemm.hpp"
#include "atf/kernels/conv2d.hpp"
#include "atf/kernels/knobs.hpp"
#include "atf/kernels/reduce.hpp"
#include "atf/kernels/saxpy.hpp"
#include "atf/kernels/spmv.hpp"
#include "atf/kernels/stencil2d.hpp"
#include "atf/kernels/xgemm_direct.hpp"
#include "ocls/error.hpp"

namespace {

namespace kn = atf::kernels;

/// A params value that differs from the defaults in every knob, and whose
/// integer knobs all differ from each other, so a knob that a helper skips
/// or swaps shows up as a mismatch.
template <typename Params>
Params distinct() {
  Params p;
  std::uint64_t next = 1000;
  visit_knobs(p, [&](const char*, auto& field) {
    if constexpr (std::is_same_v<std::remove_reference_t<decltype(field)>,
                                 bool>) {
      field = !field;
    } else {
      field = next++;
    }
  });
  return p;
}

template <typename Params>
class KnobTable : public ::testing::Test {};

using families =
    ::testing::Types<kn::saxpy::params, kn::reduce::params,
                     kn::xgemm::params, kn::conv2d::params,
                     kn::stencil2d::params, kn::spmv::params,
                     kn::batched_gemm::params>;
TYPED_TEST_SUITE(KnobTable, families);

TYPED_TEST(KnobTable, ConfigurationRoundTripIsExact) {
  const TypeParam p = distinct<TypeParam>();
  ASSERT_FALSE(p == TypeParam{});
  const atf::configuration config = kn::to_configuration(p);
  EXPECT_EQ(config.size(), kn::knob_names<TypeParam>().size());
  EXPECT_EQ(kn::params_from<TypeParam>(config), p);
}

TYPED_TEST(KnobTable, DefinesRoundTripIsExact) {
  const TypeParam p = distinct<TypeParam>();
  ocls::define_map defines;
  kn::to_defines(p, defines);
  EXPECT_EQ(defines.all().size(), kn::knob_names<TypeParam>().size());
  EXPECT_EQ(kn::from_defines<TypeParam>(defines), p);
  // Writing again overwrites every knob: the cost functions reuse one map.
  kn::to_defines(TypeParam{}, defines);
  EXPECT_EQ(kn::from_defines<TypeParam>(defines), TypeParam{});
}

TYPED_TEST(KnobTable, NamesAreUniqueAndAMissingKnobThrows) {
  const auto names = kn::knob_names<TypeParam>();
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(std::set<std::string>(names.begin(), names.end()).size(),
            names.size());

  // Drop the last knob from a complete configuration and define map.
  const atf::configuration full = kn::to_configuration(TypeParam{});
  atf::configuration partial;
  for (std::size_t i = 0; i + 1 < full.entries().size(); ++i) {
    partial.add(full.entries()[i].first, full.entries()[i].second);
  }
  EXPECT_THROW((void)kn::params_from<TypeParam>(partial), std::out_of_range);

  ocls::define_map defines;
  for (std::size_t i = 0; i + 1 < full.entries().size(); ++i) {
    defines.set(full.entries()[i].first,
                atf::to_string(full.entries()[i].second));
  }
  EXPECT_THROW((void)kn::from_defines<TypeParam>(defines), ocls::build_error);
}

}  // namespace
