#include "atf/kernels/stencil2d.hpp"

#include <algorithm>
#include <cmath>

#include "atf/common/math_utils.hpp"
#include "atf/constraint.hpp"
#include "atf/range.hpp"
#include "ocls/buffer.hpp"
#include "ocls/error.hpp"

namespace atf::kernels::stencil2d {

namespace {

std::size_t haloed_tile_bytes(std::uint64_t tx, std::uint64_t ty,
                              std::size_t radius) {
  return static_cast<std::size_t>((tx + 2 * radius) * (ty + 2 * radius)) *
         sizeof(float);
}

}  // namespace

tuning_setup make_tuning_parameters(const problem& prob,
                                    std::size_t max_work_group_size,
                                    std::size_t local_mem_bytes) {
  const std::uint64_t w_int = prob.int_width();
  const std::uint64_t h_int = prob.int_height();
  const std::uint64_t r = prob.radius;
  const std::size_t radius = prob.radius;

  atf::tp<std::uint64_t> tx("TX", atf::interval<std::uint64_t>(1, w_int));
  atf::tp<std::uint64_t> lx("LX", atf::interval<std::uint64_t>(1, w_int),
                            atf::divides(tx));
  atf::tp<std::uint64_t> vec("VEC", atf::set<std::uint64_t>({1, 2, 4, 8}),
                             atf::divides(tx / lx));
  atf::tp<std::uint64_t> ty("TY", atf::interval<std::uint64_t>(1, h_int));
  atf::tp<std::uint64_t> ly(
      "LY", atf::interval<std::uint64_t>(1, h_int),
      atf::divides(ty) &&
          atf::less_equal(atf::expr<std::uint64_t>([lx, max_work_group_size] {
            return max_work_group_size /
                   std::max<std::uint64_t>(lx.eval(), 1);
          })));
  atf::tp<std::uint64_t> unroll("UNROLL", atf::interval<std::uint64_t>(1, r),
                                atf::divides(r));
  atf::tp<bool> halo_lmem(
      "HALO_LMEM", atf::set(false, true),
      atf::pred([tx, ty, radius, local_mem_bytes](bool v) {
        return !v || haloed_tile_bytes(tx.eval(), ty.eval(), radius) <=
                         local_mem_bytes;
      }));

  return tuning_setup{std::move(tx), std::move(lx),     std::move(vec),
                      std::move(ty), std::move(ly),     std::move(unroll),
                      std::move(halo_lmem)};
}

ocls::nd_range launch_range(const problem& prob, const params& p) {
  const std::size_t tiles_x = common::ceil_div(prob.int_width(), p.tx);
  const std::size_t tiles_y = common::ceil_div(prob.int_height(), p.ty);
  return ocls::nd_range::d2(tiles_x * p.lx, tiles_y * p.ly, p.lx, p.ly);
}

bool valid(const problem& prob, const params& p,
           std::size_t max_work_group_size, std::size_t local_mem_bytes) {
  const auto is_vw = [](std::uint64_t v) {
    return v == 1 || v == 2 || v == 4 || v == 8;
  };
  if (p.tx == 0 || p.ty == 0 || p.lx == 0 || p.ly == 0 || p.unroll == 0) {
    return false;
  }
  if (p.tx > prob.int_width() || p.ty > prob.int_height()) return false;
  if (p.lx > prob.int_width() || p.ly > prob.int_height()) return false;
  if (!is_vw(p.vec)) return false;
  if (p.tx % p.lx != 0) return false;
  if (p.ty % p.ly != 0) return false;
  if ((p.tx / p.lx) % p.vec != 0) return false;
  if (p.unroll > prob.radius || prob.radius % p.unroll != 0) return false;
  if (p.lx * p.ly > max_work_group_size) return false;
  if (p.halo_lmem &&
      haloed_tile_bytes(p.tx, p.ty, prob.radius) > local_mem_bytes) {
    return false;
  }
  return true;
}

namespace {

void body(const ocls::nd_item& item, const ocls::kernel_args& args,
          const ocls::define_map& defines) {
  if (args.size() != 5) {
    throw ocls::invalid_kernel_args("stencil2d expects (H, W, R, in, out)");
  }
  const auto h = args[0].scalar<std::size_t>();
  const auto w = args[1].scalar<std::size_t>();
  const auto r = args[2].scalar<std::size_t>();
  auto& in = args[3].buf<float>();
  auto& out = args[4].buf<float>();

  const std::uint64_t tx = defines.get_uint("TX");
  const std::uint64_t ty = defines.get_uint("TY");
  const std::size_t lx = item.local_size(0);
  const std::size_t ly = item.local_size(1);
  const std::size_t w_int = w - 2 * r;
  const std::size_t h_int = h - 2 * r;

  // Thread (i, j) sweeps its tile with stride (LX, LY); tiles overhanging
  // the interior are guarded. Coordinates are interior-relative, shifted by
  // the radius on access.
  const std::size_t tile_x = item.group_id(0) * tx;
  const std::size_t tile_y = item.group_id(1) * ty;
  for (std::size_t y = tile_y + item.local_id(1); y < tile_y + ty; y += ly) {
    if (y >= h_int) continue;
    for (std::size_t x = tile_x + item.local_id(0); x < tile_x + tx;
         x += lx) {
      if (x >= w_int) continue;
      const std::size_t gy = y + r;
      const std::size_t gx = x + r;
      float acc = center_weight * in[gy * w + gx];
      for (std::size_t d = 1; d <= r; ++d) {
        acc += ring_weight * (in[(gy - d) * w + gx] + in[(gy + d) * w + gx] +
                              in[gy * w + (gx - d)] + in[gy * w + (gx + d)]);
      }
      out[gy * w + gx] = acc;
    }
  }

  // The boundary ring is copied once, by the first work-item (the real
  // kernel would use a separate trivially-parallel pass; modeling it inside
  // the sweep keeps the reference check to a single launch).
  if (item.global_id(0) == 0 && item.global_id(1) == 0) {
    for (std::size_t y = 0; y < h; ++y) {
      for (std::size_t x = 0; x < w; ++x) {
        if (y < r || y >= h - r || x < r || x >= w - r) {
          out[y * w + x] = in[y * w + x];
        }
      }
    }
  }
}

std::size_t local_mem(const ocls::define_map& defines) {
  if (!defines.get_bool("HALO_LMEM")) {
    return 0;
  }
  const std::uint64_t tx = defines.get_uint("TX");
  const std::uint64_t ty = defines.get_uint("TY");
  const std::uint64_t r = defines.get_uint("R");
  return static_cast<std::size_t>((tx + 2 * r) * (ty + 2 * r)) *
         sizeof(float);
}

ocls::perf_estimate model(const ocls::nd_range& range,
                          const ocls::device_profile& dev,
                          const ocls::define_map& defines) {
  const double h = static_cast<double>(defines.get_uint("H"));
  const double w = static_cast<double>(defines.get_uint("W"));
  const double r = static_cast<double>(defines.get_uint("R"));
  const params p = from_defines<params>(defines);

  const double h_int = h - 2.0 * r;
  const double w_int = w - 2.0 * r;
  const double tiles_x = static_cast<double>(range.global[0] / range.local[0]);
  const double tiles_y = static_cast<double>(range.global[1] / range.local[1]);
  const double num_wgs = tiles_x * tiles_y;
  const double threads = static_cast<double>(p.lx * p.ly);
  const double cus = static_cast<double>(dev.compute_units);

  // Arithmetic is a sideshow: (1 + 4R) MACs per point. Unrolling shaves
  // loop overhead only.
  const double flops_per_wg =
      2.0 * static_cast<double>(p.tx * p.ty) * (1.0 + 4.0 * r);
  const double unroll_eff =
      static_cast<double>(p.unroll) / (static_cast<double>(p.unroll) + 0.25);
  double lane_eff = 1.0;
  if (dev.kind == ocls::device_kind::gpu) {
    const double simd = static_cast<double>(dev.simd_width);
    lane_eff = threads / (std::ceil(threads / simd) * simd);
  }
  const double rate =
      dev.flops_per_cu_per_cycle * dev.clock_ghz * unroll_eff * lane_eff;
  const double wgs_per_cu = std::ceil(num_wgs / cus);
  const double t_compute = wgs_per_cu * flops_per_wg / rate;

  // The traffic term rules the landscape. An unstaged sweep re-reads every
  // input (4R+1) times; halo staging reads the (TX+2R)(TY+2R) tile once.
  const double reads_per_wg =
      p.halo_lmem
          ? (static_cast<double>(p.tx) + 2.0 * r) *
                (static_cast<double>(p.ty) + 2.0 * r)
          : static_cast<double>(p.tx * p.ty) * (1.0 + 4.0 * r);
  const double bytes = (num_wgs * reads_per_wg + h_int * w_int) * 4.0;

  // Coalescing: a row of LX*VEC consecutive floats approaches peak
  // bandwidth as it fills a 128-byte transaction (GPU); on CPUs wider
  // vector rows amortize the scalar-gather overhead the same way.
  const double row_floats = static_cast<double>(p.lx * p.vec);
  const double coalesce_eff =
      std::min(1.0, (0.35 + 0.65 * row_floats / 32.0));
  double bw = dev.peak_bytes_per_s() * std::min(1.0, coalesce_eff);
  if ((h * w * 2.0) * 4.0 < static_cast<double>(dev.llc_bytes)) {
    bw *= dev.cache_bw_multiplier;
  }
  const double t_mem = bytes / (bw * 0.85) * 1e9;
  const double t_sched = wgs_per_cu * dev.workgroup_overhead_ns;

  const double t = std::max(t_compute, t_mem) + t_sched;
  const double busy = std::min(num_wgs, cus) / cus;
  // Bandwidth-bound kernels keep the ALUs half-idle: utilization tracks
  // the compute/memory ratio, which drives the energy model.
  const double balance =
      t_mem > 0.0 ? std::clamp(t_compute / t_mem, 0.1, 1.0) : 1.0;
  return {t, std::clamp(busy * balance, 0.05, 1.0)};
}

}  // namespace

ocls::define_map make_defines(const problem& prob, const params& p) {
  ocls::define_map defines;
  defines.set("H", static_cast<std::uint64_t>(prob.height));
  defines.set("W", static_cast<std::uint64_t>(prob.width));
  defines.set("R", static_cast<std::uint64_t>(prob.radius));
  to_defines(p, defines);
  return defines;
}

std::vector<float> make_input(const problem& prob) {
  std::vector<float> in(prob.height * prob.width);
  for (std::size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<float>(static_cast<int>((i * 3 + 1) % 9) - 4) * 0.125f;
  }
  return in;
}

std::vector<float> reference_stencil(const problem& prob,
                                     const std::vector<float>& in) {
  const std::size_t h = prob.height;
  const std::size_t w = prob.width;
  const std::size_t r = prob.radius;
  std::vector<float> out(in);
  for (std::size_t y = r; y < h - r; ++y) {
    for (std::size_t x = r; x < w - r; ++x) {
      float acc = center_weight * in[y * w + x];
      for (std::size_t d = 1; d <= r; ++d) {
        acc += ring_weight * (in[(y - d) * w + x] + in[(y + d) * w + x] +
                              in[y * w + (x - d)] + in[y * w + (x + d)]);
      }
      out[y * w + x] = acc;
    }
  }
  return out;
}

ocls::kernel make_kernel() {
  ocls::kernel k("stencil2d_star");
  k.set_body(body);
  k.set_perf_model(model);
  k.set_local_mem_model(local_mem);
  return k;
}

}  // namespace atf::kernels::stencil2d
