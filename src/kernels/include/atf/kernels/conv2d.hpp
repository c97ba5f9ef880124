// A direct 2D convolution kernel (valid padding, single channel) — the
// second workload class the paper's Caffe motivation implies. Demonstrates
// ATF on a kernel whose parameters mix integers, a vector width and a
// boolean (local-memory staging), with two dependency groups.
//
//   out[y][x] = sum_{r,s} in[y+r][x+s] * flt[r][s]
//     in:  H x W,  flt: R x S,  out: (H-R+1) x (W-S+1)
//
// Tuning parameters and constraints:
//   TBX, TBY     work-group output tile, in {1..W_out} / {1..H_out}
//   LX,  LY      thread grid; LX | TBX, LY | TBY, LX*LY <= max work-group
//   VECX         vector width in x, in {1,2,4,8}; VECX | (TBX / LX)
//   UNROLL       filter-row unrolling, in {1..R}; UNROLL | R
//   USE_LMEM     stage the input tile in local memory; the staged tile
//                (TBX+S-1) x (TBY+R-1) floats must fit the device
//
// TBX/LX/VECX and TBY/LY form two *dependency groups* together with the
// shared parameters — we keep one group for correctness (UNROLL and
// USE_LMEM are independent singletons and make good extra groups, which the
// Section V parallel generation exploits).
#pragma once

#include <cstddef>
#include <vector>

#include "atf/kernels/knobs.hpp"
#include "atf/tp.hpp"
#include "ocls/device.hpp"
#include "ocls/kernel.hpp"
#include "ocls/ndrange.hpp"

namespace atf::kernels::conv2d {

struct problem {
  std::size_t height = 0;          ///< input H
  std::size_t width = 0;           ///< input W
  std::size_t filter_height = 0;   ///< R
  std::size_t filter_width = 0;    ///< S

  [[nodiscard]] std::size_t out_height() const {
    return height - filter_height + 1;
  }
  [[nodiscard]] std::size_t out_width() const {
    return width - filter_width + 1;
  }
};

struct params {
  std::uint64_t tbx = 8;
  std::uint64_t tby = 8;
  std::uint64_t lx = 8;
  std::uint64_t ly = 8;
  std::uint64_t vecx = 1;
  std::uint64_t unroll = 1;
  bool use_lmem = true;

  friend bool operator==(const params&, const params&) = default;
};

/// The knob table (atf/kernels/knobs.hpp).
template <typename Params, typename Visit>
  requires std::same_as<std::remove_cvref_t<Params>, params>
void visit_knobs(Params&& p, Visit&& visit) {
  visit("TBX", p.tbx);
  visit("TBY", p.tby);
  visit("LX", p.lx);
  visit("LY", p.ly);
  visit("VECX", p.vecx);
  visit("UNROLL", p.unroll);
  visit("USE_LMEM", p.use_lmem);
}

struct tuning_setup {
  atf::tp<std::uint64_t> tbx, lx, vecx;  ///< x group
  atf::tp<std::uint64_t> tby, ly;        ///< y group
  atf::tp<std::uint64_t> unroll;         ///< singleton group
  atf::tp<bool> use_lmem;                ///< singleton group (lmem-guarded)

  /// The three dependency groups of Section V. USE_LMEM's local-memory
  /// bound references TBX/TBY, so it joins the x group's chain via a merged
  /// group layout: {TBX, LX, VECX, TBY, LY, USE_LMEM} + {UNROLL}.
  [[nodiscard]] std::vector<atf::tp_group> groups() const {
    return {atf::G(tbx, lx, vecx, tby, ly, use_lmem), atf::G(unroll)};
  }
};

[[nodiscard]] tuning_setup make_tuning_parameters(
    const problem& prob, std::size_t max_work_group_size = 1024,
    std::size_t local_mem_bytes = 48 * 1024);

/// Launch: ceil-rounded tile grid, LX x LY threads per group.
[[nodiscard]] ocls::nd_range launch_range(const problem& prob,
                                          const params& p);

/// Full validity predicate (for tests and penalty baselines).
[[nodiscard]] bool valid(const problem& prob, const params& p,
                         std::size_t max_work_group_size = 1024,
                         std::size_t local_mem_bytes = 48 * 1024);

/// Kernel args: (H, W, R, S scalars, in, flt, out buffers).
[[nodiscard]] ocls::kernel make_kernel();

[[nodiscard]] ocls::define_map make_defines(const problem& prob,
                                            const params& p);

}  // namespace atf::kernels::conv2d
