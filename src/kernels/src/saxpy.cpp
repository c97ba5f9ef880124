#include "atf/kernels/saxpy.hpp"

#include <algorithm>
#include <cmath>

#include "atf/constraint.hpp"
#include "atf/range.hpp"
#include "ocls/buffer.hpp"

namespace atf::kernels::saxpy {

tuning_setup make_tuning_parameters(std::size_t n) {
  atf::tp<std::size_t> wpt("WPT", atf::interval<std::size_t>(1, n),
                           atf::divides(n));
  atf::tp<std::size_t> ls("LS", atf::interval<std::size_t>(1, n),
                          atf::divides(n / wpt));
  return tuning_setup{std::move(wpt), std::move(ls)};
}

ocls::nd_range launch_range(std::size_t n, std::size_t wpt, std::size_t ls) {
  return ocls::nd_range::d1(n / wpt, ls);
}

ocls::define_map make_defines(std::size_t n, const params& p) {
  ocls::define_map defines;
  defines.set("N", static_cast<std::uint64_t>(n));
  to_defines(p, defines);
  return defines;
}

const char* source() {
  return R"(__kernel void saxpy(const int N, const float a,
                    const __global float* x, __global float* y)
{
  for (int w = 0; w < WPT; ++w) {
    const int index = w * get_global_size(0) + get_global_id(0);
    y[index] += a * x[index];
  }
})";
}

namespace {

/// Functional body: the strided WPT loop from Listing 1.
void body(const ocls::nd_item& item, const ocls::kernel_args& args,
          const ocls::define_map& defines) {
  if (args.size() != 4) {
    throw ocls::invalid_kernel_args("saxpy expects (N, a, x, y)");
  }
  const auto n = args[0].scalar<std::size_t>();
  const auto a = args[1].scalar<float>();
  auto& x = args[2].buf<float>();
  auto& y = args[3].buf<float>();
  const std::uint64_t wpt = defines.get_uint("WPT");
  const std::size_t gsz = item.global_size(0);
  for (std::uint64_t w = 0; w < wpt; ++w) {
    const std::size_t index = w * gsz + item.global_id(0);
    if (index < n) {
      y[index] = a * x[index] + y[index];
    }
  }
}

/// Analytical model. saxpy is bandwidth-bound: 12 bytes and 2 flops per
/// element. The tuning landscape comes from the launch shape:
///   * lane efficiency — GPUs waste SIMD lanes when LS is not a multiple of
///     the warp width; CPUs are insensitive;
///   * parallel coverage — too few work-groups leave compute units idle;
///   * scheduling — every work-group costs workgroup_overhead_ns of its
///     compute unit's time, so tiny WPT (huge global size) with tiny LS
///     (many groups) drowns in overhead, especially on the CPU;
///   * strided-loop overhead per work-item iteration.
ocls::perf_estimate model(const ocls::nd_range& range,
                          const ocls::device_profile& dev,
                          const ocls::define_map& defines) {
  const double wpt = static_cast<double>(defines.get_uint("WPT"));
  const double global = static_cast<double>(range.global_total());
  const double local = static_cast<double>(range.local_total());
  const double groups = global / local;
  const double elements = global * wpt;

  // Streaming time at peak bandwidth.
  const double bytes = elements * 12.0;  // read x, read y, write y
  const double t_stream_ns = bytes / dev.peak_bytes_per_s() * 1e9;

  // Lane efficiency: partial SIMD groups waste lanes on the GPU.
  double lane_eff = 1.0;
  if (dev.kind == ocls::device_kind::gpu) {
    const double simd = static_cast<double>(dev.simd_width);
    lane_eff = local / (std::ceil(local / simd) * simd);
  }

  // Parallel coverage: fewer groups than compute units leaves CUs idle.
  const double cus = static_cast<double>(dev.compute_units);
  const double coverage = std::min(1.0, groups / cus);

  // Loop overhead: each work-item iterates WPT times; the iteration
  // bookkeeping costs a couple of cycles beyond the streaming accesses.
  const double iter_cycles = dev.kind == ocls::device_kind::cpu ? 2.0 : 4.0;
  const double t_loop_ns = elements * iter_cycles /
                           (cus * static_cast<double>(dev.simd_width) *
                            dev.clock_ghz);

  // Work-group scheduling, spread over the compute units.
  const double t_sched_ns = groups * dev.workgroup_overhead_ns / cus;

  const double t_ns =
      std::max(t_stream_ns, t_loop_ns) / (lane_eff * std::max(coverage, 1e-3)) +
      t_sched_ns;

  // Bandwidth-bound kernels run the memory system hot but the ALUs cool.
  const double utilization =
      0.35 + 0.45 * coverage * lane_eff;
  return {t_ns, utilization};
}

/// saxpy uses no __local memory.
std::size_t local_mem(const ocls::define_map&) { return 0; }

}  // namespace

ocls::kernel make_kernel() {
  ocls::kernel k("saxpy");
  k.set_source(source());
  k.set_body(body);
  k.set_perf_model(model);
  k.set_local_mem_model(local_mem);
  return k;
}

}  // namespace atf::kernels::saxpy
