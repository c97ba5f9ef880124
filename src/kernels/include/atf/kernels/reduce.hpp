// A tunable sum reduction — the classic first workload of OpenCL tuning
// guides, exercising power-of-two constraints and grid-stride accumulation.
//
//   out[g] = sum of the elements work-group g accumulates;
//   the host (or a second launch) adds the per-group partials.
//
// Tuning parameters and constraints:
//   LS      work-group size, a power of two, <= the device limit
//           (powers of two because the in-group tree reduction halves LS)
//   WPT     elements each work-item accumulates before the tree phase,
//           in {1..N/LS} (grid-stride loop; tail guarded)
//   UNROLL  accumulation-loop unrolling in {1,2,4,8}; UNROLL | WPT
#pragma once

#include <cstddef>
#include <cstdint>

#include "atf/kernels/knobs.hpp"
#include "atf/tp.hpp"
#include "ocls/kernel.hpp"
#include "ocls/ndrange.hpp"

namespace atf::kernels::reduce {

struct params {
  std::uint64_t ls = 128;
  std::uint64_t wpt = 4;
  std::uint64_t unroll = 1;

  friend bool operator==(const params&, const params&) = default;
};

/// The knob table (atf/kernels/knobs.hpp).
template <typename Params, typename Visit>
  requires std::same_as<std::remove_cvref_t<Params>, params>
void visit_knobs(Params&& p, Visit&& visit) {
  visit("LS", p.ls);
  visit("WPT", p.wpt);
  visit("UNROLL", p.unroll);
}

struct tuning_setup {
  atf::tp<std::uint64_t> ls, wpt, unroll;

  [[nodiscard]] atf::tp_group group() const { return atf::G(ls, wpt, unroll); }
};

[[nodiscard]] tuning_setup make_tuning_parameters(
    std::size_t n, std::size_t max_work_group_size = 1024);

/// Number of work-groups a configuration launches.
[[nodiscard]] std::size_t num_groups(std::size_t n, const params& p);

[[nodiscard]] ocls::nd_range launch_range(std::size_t n, const params& p);

/// N plus the knobs.
[[nodiscard]] ocls::define_map make_defines(std::size_t n, const params& p);

/// Kernel args: (N scalar, in buffer, partials buffer with >= num_groups
/// elements).
[[nodiscard]] ocls::kernel make_kernel();

}  // namespace atf::kernels::reduce
