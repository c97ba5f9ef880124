// One knob table per kernel family, one generic adapter.
//
// Each family declares its tuning parameters once, next to its `params`
// struct, as a table
//
//   template <typename Params, typename Visit>
//     requires std::same_as<std::remove_cvref_t<Params>, params>
//   void visit_knobs(Params&& p, Visit&& visit);
//
// that calls visit(name, field) once per knob, in declaration order — as in
// the paper, where a tuning parameter is declared once and reaches the
// kernel as a -D define (Section II). The helpers below drive any such table
// (found by argument-dependent lookup), so no family maps knob names onto
// fields by hand: a configuration decodes into `params`, `params` encode
// back into a configuration, and `params` go to and come from the
// simulator's define map, all from the one table.
#pragma once

#include <concepts>
#include <string>
#include <type_traits>
#include <vector>

#include "atf/configuration.hpp"
#include "atf/value.hpp"
#include "ocls/define_map.hpp"

namespace atf::kernels {

/// A family's `params`: default-constructible, with a visit_knobs table in
/// its namespace.
template <typename Params>
concept knob_table = std::default_initializable<Params> &&
                     requires(Params& p) {
                       visit_knobs(p, [](const char*, auto&) {});
                     };

/// Decodes a configuration. Throws std::out_of_range when a knob is missing
/// and atf::value_type_error when one has the wrong type.
template <knob_table Params>
[[nodiscard]] Params params_from(const atf::configuration& config) {
  Params p;
  visit_knobs(p, [&](const char* name, auto& field) {
    field = config.get<std::remove_reference_t<decltype(field)>>(name);
  });
  return p;
}

/// Decodes a name -> integer map, the form in which the baseline tuners
/// (CLTune, OpenTuner) report a configuration; a bool knob arrives as 0/1.
/// Throws std::out_of_range when a knob is missing.
template <knob_table Params, typename Values>
[[nodiscard]] Params params_from_values(const Values& values) {
  Params p;
  visit_knobs(p, [&](const char* name, auto& field) {
    field = static_cast<std::remove_reference_t<decltype(field)>>(
        values.at(name));
  });
  return p;
}

/// The configuration holding `p`'s knobs, in table order.
template <knob_table Params>
[[nodiscard]] atf::configuration to_configuration(const Params& p) {
  atf::configuration config;
  visit_knobs(p, [&](const char* name, const auto& field) {
    config.add(name, atf::to_tp_value(field));
  });
  return config;
}

/// Reads the knobs back from the defines a kernel was built with. Throws
/// ocls::build_error when a knob is missing or malformed.
template <knob_table Params>
[[nodiscard]] Params from_defines(const ocls::define_map& defines) {
  Params p;
  visit_knobs(p, [&](const char* name, auto& field) {
    if constexpr (std::is_same_v<std::remove_reference_t<decltype(field)>,
                                 bool>) {
      field = defines.get_bool(name);
    } else {
      field = defines.get_uint(name);
    }
  });
  return p;
}

/// Writes (or overwrites) one define per knob.
template <knob_table Params>
void to_defines(const Params& p, ocls::define_map& defines) {
  visit_knobs(p, [&](const char* name, const auto& field) {
    defines.set(name, field);
  });
}

/// The knob names, in table order.
template <knob_table Params>
[[nodiscard]] std::vector<std::string> knob_names() {
  std::vector<std::string> names;
  visit_knobs(Params{}, [&](const char* name, const auto&) {
    names.emplace_back(name);
  });
  return names;
}

}  // namespace atf::kernels
