#include "atf/kernels/reduce.hpp"

#include <algorithm>
#include <cmath>

#include "atf/common/math_utils.hpp"
#include "atf/constraint.hpp"
#include "atf/range.hpp"
#include "ocls/buffer.hpp"
#include "ocls/error.hpp"

namespace atf::kernels::reduce {

tuning_setup make_tuning_parameters(std::size_t n,
                                    std::size_t max_work_group_size) {
  atf::tp<std::uint64_t> ls(
      "LS", atf::interval<std::uint64_t>(1, max_work_group_size),
      atf::power_of_two());
  atf::tp<std::uint64_t> wpt(
      "WPT", atf::interval<std::uint64_t>(1, std::max<std::size_t>(n, 1)),
      atf::less_equal(atf::expr<std::uint64_t>([ls, n] {
        return static_cast<std::uint64_t>(n) /
               std::max<std::uint64_t>(ls.eval(), 1);
      })));
  atf::tp<std::uint64_t> unroll("UNROLL", atf::set<std::uint64_t>({1, 2, 4, 8}),
                                atf::divides(wpt));
  return tuning_setup{std::move(ls), std::move(wpt), std::move(unroll)};
}

std::size_t num_groups(std::size_t n, const params& p) {
  return common::ceil_div(n, p.ls * p.wpt);
}

ocls::nd_range launch_range(std::size_t n, const params& p) {
  return ocls::nd_range::d1(num_groups(n, p) * p.ls, p.ls);
}

ocls::define_map make_defines(std::size_t n, const params& p) {
  ocls::define_map defines;
  defines.set("N", static_cast<std::uint64_t>(n));
  to_defines(p, defines);
  return defines;
}

namespace {

void body(const ocls::nd_item& item, const ocls::kernel_args& args,
          const ocls::define_map& defines) {
  if (args.size() != 3) {
    throw ocls::invalid_kernel_args("reduce expects (N, in, partials)");
  }
  const auto n = args[0].scalar<std::size_t>();
  auto& in = args[1].buf<float>();
  auto& partials = args[2].buf<float>();
  const std::uint64_t wpt = defines.get_uint("WPT");

  // Work-items of a group execute sequentially in the simulator, so a
  // plain accumulation into the group's partial is race-free (real OpenCL
  // uses a local-memory tree; the arithmetic result is identical).
  const std::size_t group = item.group_id(0);
  if (item.local_id(0) == 0) {
    partials[group] = 0.0f;
  }
  const std::size_t base =
      group * item.local_size(0) * wpt + item.local_id(0);
  float acc = 0.0f;
  for (std::uint64_t i = 0; i < wpt; ++i) {
    const std::size_t index = base + i * item.local_size(0);
    if (index < n) {
      acc += in[index];
    }
  }
  partials[group] += acc;
}

std::size_t local_mem(const ocls::define_map& defines) {
  // The tree phase stages LS floats in local memory.
  return static_cast<std::size_t>(defines.get_uint("LS")) * sizeof(float);
}

ocls::perf_estimate model(const ocls::nd_range& range,
                          const ocls::device_profile& dev,
                          const ocls::define_map& defines) {
  const double n = static_cast<double>(defines.get_uint("N"));
  const double ls = static_cast<double>(defines.get_uint("LS"));
  const double wpt = static_cast<double>(defines.get_uint("WPT"));
  const double unroll = static_cast<double>(defines.get_uint("UNROLL"));
  const double groups = static_cast<double>(range.num_groups());
  const double cus = static_cast<double>(dev.compute_units);

  // Streaming the input dominates; the tree phase adds log2(LS) steps per
  // group that only the first warp executes.
  const double bytes = n * 4.0 + groups * 4.0;
  double bw = dev.peak_bytes_per_s();
  if (n * 4.0 < static_cast<double>(dev.llc_bytes)) {
    bw *= dev.cache_bw_multiplier;
  }
  double lane_eff = 1.0;
  if (dev.kind == ocls::device_kind::gpu) {
    const double simd = static_cast<double>(dev.simd_width);
    lane_eff = ls / (std::ceil(ls / simd) * simd);
  }
  const double coverage = std::min(1.0, groups / cus);
  const double unroll_eff = unroll / (unroll + 0.4);
  const double t_stream =
      bytes / (bw * lane_eff * std::max(coverage, 1e-3) * unroll_eff) * 1e9;

  const double tree_steps = std::log2(std::max(ls, 2.0));
  const double t_tree =
      std::ceil(groups / cus) * tree_steps * 4.0 / dev.clock_ghz;
  const double t_sched =
      std::ceil(groups / cus) * dev.workgroup_overhead_ns;

  (void)wpt;
  return {t_stream + t_tree + t_sched,
          std::clamp(0.3 + 0.5 * coverage, 0.05, 1.0)};
}

}  // namespace

ocls::kernel make_kernel() {
  ocls::kernel k("reduce_sum");
  k.set_body(body);
  k.set_perf_model(model);
  k.set_local_mem_model(local_mem);
  return k;
}

}  // namespace atf::kernels::reduce
