// The saxpy kernel of Listing 1 (simplified from CLBlast's Xaxpy).
//
//   y[i] = a * x[i] + y[i]
//
// Each work-item processes WPT elements with a global-size stride (the
// CLBlast access pattern, coalesced on GPUs). Tuning parameters:
//   * WPT (work-per-thread) — must divide the input size N;
//   * LS  (local size)      — must divide the global size N / WPT.
#pragma once

#include <cstddef>
#include <cstdint>

#include "atf/kernels/knobs.hpp"
#include "atf/tp.hpp"
#include "ocls/kernel.hpp"
#include "ocls/ndrange.hpp"

namespace atf::kernels::saxpy {

/// One concrete configuration of the two parameters.
struct params {
  std::uint64_t wpt = 1;
  std::uint64_t ls = 1;

  friend bool operator==(const params&, const params&) = default;
};

/// The knob table (atf/kernels/knobs.hpp).
template <typename Params, typename Visit>
  requires std::same_as<std::remove_cvref_t<Params>, params>
void visit_knobs(Params&& p, Visit&& visit) {
  visit("WPT", p.wpt);
  visit("LS", p.ls);
}

/// The tuning parameters of the ATF program in Listing 2, wired with the
/// paper's constraints. The returned tps share state with the group, so
/// they can be used in launch-geometry expressions.
struct tuning_setup {
  atf::tp<std::size_t> wpt;
  atf::tp<std::size_t> ls;

  [[nodiscard]] atf::tp_group group() const { return atf::G(wpt, ls); }
};

/// Builds WPT in [1, n] dividing n, and LS in [1, n] dividing n / WPT.
[[nodiscard]] tuning_setup make_tuning_parameters(std::size_t n);

/// Launch geometry: global size n / wpt, local size ls.
[[nodiscard]] ocls::nd_range launch_range(std::size_t n, std::size_t wpt,
                                          std::size_t ls);

/// N plus the knobs, as the cost function "compiles" the kernel.
[[nodiscard]] ocls::define_map make_defines(std::size_t n, const params& p);

/// The simulated kernel: functional body (args: N scalar, a scalar, x buffer,
/// y buffer; defines: WPT) plus the analytical performance model.
[[nodiscard]] ocls::kernel make_kernel();

/// OpenCL C source of Listing 1, carried for fidelity (the simulator's
/// cost function logs it; it is never parsed).
[[nodiscard]] const char* source();

}  // namespace atf::kernels::saxpy
