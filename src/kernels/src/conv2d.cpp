#include "atf/kernels/conv2d.hpp"

#include <algorithm>
#include <cmath>

#include "atf/common/math_utils.hpp"
#include "atf/constraint.hpp"
#include "atf/range.hpp"
#include "ocls/buffer.hpp"
#include "ocls/error.hpp"

namespace atf::kernels::conv2d {

namespace {

std::size_t staged_tile_bytes(std::uint64_t tbx, std::uint64_t tby,
                              const problem& prob) {
  return static_cast<std::size_t>((tbx + prob.filter_width - 1) *
                                  (tby + prob.filter_height - 1)) *
         sizeof(float);
}

}  // namespace

tuning_setup make_tuning_parameters(const problem& prob,
                                    std::size_t max_work_group_size,
                                    std::size_t local_mem_bytes) {
  const std::uint64_t w_out = prob.out_width();
  const std::uint64_t h_out = prob.out_height();
  const std::uint64_t r = prob.filter_height;

  atf::tp<std::uint64_t> tbx("TBX", atf::interval<std::uint64_t>(1, w_out));
  atf::tp<std::uint64_t> lx("LX", atf::interval<std::uint64_t>(1, w_out),
                            atf::divides(tbx));
  atf::tp<std::uint64_t> vecx("VECX", atf::set<std::uint64_t>({1, 2, 4, 8}),
                              atf::divides(tbx / lx));
  atf::tp<std::uint64_t> tby("TBY", atf::interval<std::uint64_t>(1, h_out));
  atf::tp<std::uint64_t> ly(
      "LY", atf::interval<std::uint64_t>(1, h_out),
      atf::divides(tby) &&
          atf::less_equal(atf::expr<std::uint64_t>([lx, max_work_group_size] {
            return max_work_group_size /
                   std::max<std::uint64_t>(lx.eval(), 1);
          })));
  atf::tp<std::uint64_t> unroll("UNROLL", atf::interval<std::uint64_t>(1, r),
                                atf::divides(r));
  atf::tp<bool> use_lmem(
      "USE_LMEM", atf::set(false, true),
      atf::pred([tbx, tby, prob, local_mem_bytes](bool v) {
        return !v || staged_tile_bytes(tbx.eval(), tby.eval(), prob) <=
                         local_mem_bytes;
      }));

  return tuning_setup{std::move(tbx), std::move(lx),     std::move(vecx),
                      std::move(tby), std::move(ly),     std::move(unroll),
                      std::move(use_lmem)};
}

ocls::nd_range launch_range(const problem& prob, const params& p) {
  const std::size_t tiles_x = common::ceil_div(prob.out_width(), p.tbx);
  const std::size_t tiles_y = common::ceil_div(prob.out_height(), p.tby);
  return ocls::nd_range::d2(tiles_x * p.lx, tiles_y * p.ly, p.lx, p.ly);
}

bool valid(const problem& prob, const params& p,
           std::size_t max_work_group_size, std::size_t local_mem_bytes) {
  const auto is_vw = [](std::uint64_t v) {
    return v == 1 || v == 2 || v == 4 || v == 8;
  };
  if (p.tbx == 0 || p.tby == 0 || p.lx == 0 || p.ly == 0 || p.unroll == 0) {
    return false;
  }
  if (!is_vw(p.vecx)) return false;
  if (p.tbx % p.lx != 0) return false;
  if (p.tby % p.ly != 0) return false;
  if ((p.tbx / p.lx) % p.vecx != 0) return false;
  if (prob.filter_height % p.unroll != 0) return false;
  if (p.lx * p.ly > max_work_group_size) return false;
  if (p.use_lmem &&
      staged_tile_bytes(p.tbx, p.tby, prob) > local_mem_bytes) {
    return false;
  }
  return true;
}

namespace {

void body(const ocls::nd_item& item, const ocls::kernel_args& args,
          const ocls::define_map& defines) {
  if (args.size() != 7) {
    throw ocls::invalid_kernel_args(
        "conv2d expects (H, W, R, S, in, flt, out)");
  }
  const auto h = args[0].scalar<std::size_t>();
  const auto w = args[1].scalar<std::size_t>();
  const auto r = args[2].scalar<std::size_t>();
  const auto s = args[3].scalar<std::size_t>();
  auto& in = args[4].buf<float>();
  auto& flt = args[5].buf<float>();
  auto& out = args[6].buf<float>();

  const std::size_t h_out = h - r + 1;
  const std::size_t w_out = w - s + 1;
  const std::uint64_t tbx = defines.get_uint("TBX");
  const std::uint64_t tby = defines.get_uint("TBY");
  const std::size_t lx = item.local_size(0);
  const std::size_t ly = item.local_size(1);

  const std::size_t tile_x = item.group_id(0) * tbx;
  const std::size_t tile_y = item.group_id(1) * tby;

  // Thread (i, j) computes the tile elements with stride (LX, LY); tiles
  // overhanging the output are guarded, as with the GEMM kernel.
  for (std::size_t y = tile_y + item.local_id(1); y < tile_y + tby; y += ly) {
    if (y >= h_out) continue;
    for (std::size_t x = tile_x + item.local_id(0); x < tile_x + tbx;
         x += lx) {
      if (x >= w_out) continue;
      float acc = 0.0f;
      for (std::size_t fr = 0; fr < r; ++fr) {
        for (std::size_t fs = 0; fs < s; ++fs) {
          acc += in[(y + fr) * w + (x + fs)] * flt[fr * s + fs];
        }
      }
      out[y * w_out + x] = acc;
    }
  }
}

std::size_t local_mem(const ocls::define_map& defines) {
  if (!defines.get_bool("USE_LMEM")) {
    return 0;
  }
  // The staged input tile: (TBX+S-1) x (TBY+R-1) floats. S and R arrive as
  // defines too (the cost function injects the problem shape).
  const std::uint64_t tbx = defines.get_uint("TBX");
  const std::uint64_t tby = defines.get_uint("TBY");
  const std::uint64_t r = defines.get_uint("R");
  const std::uint64_t s = defines.get_uint("S");
  return static_cast<std::size_t>((tbx + s - 1) * (tby + r - 1)) *
         sizeof(float);
}

ocls::perf_estimate model(const ocls::nd_range& range,
                          const ocls::device_profile& dev,
                          const ocls::define_map& defines) {
  const double h = static_cast<double>(defines.get_uint("H"));
  const double w = static_cast<double>(defines.get_uint("W"));
  const double r = static_cast<double>(defines.get_uint("R"));
  const double s = static_cast<double>(defines.get_uint("S"));
  const params p = from_defines<params>(defines);

  const double h_out = h - r + 1;
  const double w_out = w - s + 1;
  const double tiles_x = static_cast<double>(range.global[0] / range.local[0]);
  const double tiles_y = static_cast<double>(range.global[1] / range.local[1]);
  const double num_wgs = tiles_x * tiles_y;
  const double threads = static_cast<double>(p.lx * p.ly);
  const double cus = static_cast<double>(dev.compute_units);

  // Full tiles are computed (tail waste), 2 flops per MAC.
  const double flops_per_wg =
      2.0 * static_cast<double>(p.tbx * p.tby) * r * s;

  double vec_eff;
  double lane_eff = 1.0;
  double latency_eff = 1.0;
  if (dev.kind == ocls::device_kind::gpu) {
    vec_eff = std::min(
        1.0, 0.78 + 0.06 * std::log2(static_cast<double>(p.vecx)));
    const double simd = static_cast<double>(dev.simd_width);
    lane_eff = threads / (std::ceil(threads / simd) * simd);
    const double conc = std::max(1.0, std::floor(2048.0 / threads));
    const double wgs_per_cu_d = std::ceil(num_wgs / cus);
    latency_eff =
        std::min(1.0, threads * std::min(conc, wgs_per_cu_d) / 512.0);
  } else {
    vec_eff = 0.18 + 0.82 * static_cast<double>(std::min<std::uint64_t>(
                                p.vecx, dev.simd_width)) /
                         static_cast<double>(dev.simd_width);
  }
  const double unroll_eff =
      static_cast<double>(p.unroll) /
      (static_cast<double>(p.unroll) +
       (dev.kind == ocls::device_kind::cpu ? 0.5 : 0.3));

  // Local-memory staging amortizes the overlapping reads: without it every
  // output element re-reads R*S inputs from global memory.
  const double reads_per_wg =
      p.use_lmem
          ? (static_cast<double>(p.tbx) + s - 1) *
                (static_cast<double>(p.tby) + r - 1)
          : static_cast<double>(p.tbx * p.tby) * r * s;
  const double bytes = (num_wgs * reads_per_wg + h_out * w_out) * 4.0;

  const double rate =
      dev.flops_per_cu_per_cycle * dev.clock_ghz * vec_eff * unroll_eff *
      lane_eff * latency_eff;
  const double wgs_per_cu = std::ceil(num_wgs / cus);
  const double t_compute = wgs_per_cu * flops_per_wg / rate;

  double bw = dev.peak_bytes_per_s();
  if ((h * w + r * s + h_out * w_out) * 4.0 <
      static_cast<double>(dev.llc_bytes)) {
    bw *= dev.cache_bw_multiplier;
  }
  const double t_mem = bytes / (bw * 0.8) * 1e9;
  const double t_sched = wgs_per_cu * dev.workgroup_overhead_ns;

  const double t = std::max(t_compute, t_mem) + t_sched;
  const double busy = std::min(num_wgs, cus) / cus;
  return {t, std::clamp(busy * 0.8, 0.05, 1.0)};
}

}  // namespace

ocls::define_map make_defines(const problem& prob, const params& p) {
  ocls::define_map defines;
  defines.set("H", static_cast<std::uint64_t>(prob.height));
  defines.set("W", static_cast<std::uint64_t>(prob.width));
  defines.set("R", static_cast<std::uint64_t>(prob.filter_height));
  defines.set("S", static_cast<std::uint64_t>(prob.filter_width));
  to_defines(p, defines);
  return defines;
}

ocls::kernel make_kernel() {
  ocls::kernel k("conv2d_direct");
  k.set_body(body);
  k.set_perf_model(model);
  k.set_local_mem_model(local_mem);
  return k;
}

}  // namespace atf::kernels::conv2d
