// A tunable 2D star stencil (Jacobi sweep, radius R) — the bandwidth-bound
// workload family of the kernel suite (DESIGN.md §14). Stencils re-read
// every interior point 4R+1 times, so the landscape is dominated by how a
// configuration shapes *memory traffic*: halo-staged tiles trade local
// memory for global re-reads, vector width shapes coalescing, and the
// compute knobs barely matter — the exact opposite of XgemmDirect.
//
//   out[y][x] = W0 * in[y][x]
//             + WK * sum_{r=1..R} in[y±r][x] + in[y][x±r]   (interior)
//   out[y][x] = in[y][x]                                    (boundary ring)
//
// Tuning parameters and constraints (divides-chains on the tile edges):
//   TX, TY     work-group output tile, in {1..W-2R} / {1..H-2R}
//   LX, LY     thread grid; LX | TX, LY | TY, LX*LY <= max work-group
//   VEC        vector width in x, in {1,2,4,8}; VEC | (TX / LX)
//   UNROLL     radius-loop unrolling, in {1..R}; UNROLL | R
//   HALO_LMEM  stage the haloed input tile (TX+2R) x (TY+2R) floats in
//              local memory; must fit the device limit
//
// The x chain TX -> LX -> VEC and the y chain TY -> LY are tied together
// only by the work-group bound and the staged-tile bound, so the space has
// two shallow divides-chains instead of XgemmDirect's single deep web of
// 17 cross-parameter constraints — a structurally different space that the
// per-family constraint tests pin.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "atf/kernels/knobs.hpp"
#include "atf/tp.hpp"
#include "ocls/device.hpp"
#include "ocls/kernel.hpp"
#include "ocls/ndrange.hpp"

namespace atf::kernels::stencil2d {

struct problem {
  std::size_t height = 0;  ///< grid H (including the boundary ring)
  std::size_t width = 0;   ///< grid W
  std::size_t radius = 1;  ///< star radius R

  /// Interior extent actually computed by the sweep.
  [[nodiscard]] std::size_t int_height() const {
    return height - 2 * radius;
  }
  [[nodiscard]] std::size_t int_width() const { return width - 2 * radius; }
};

struct params {
  std::uint64_t tx = 8;
  std::uint64_t ty = 8;
  std::uint64_t lx = 8;
  std::uint64_t ly = 8;
  std::uint64_t vec = 1;
  std::uint64_t unroll = 1;
  bool halo_lmem = true;

  friend bool operator==(const params&, const params&) = default;
};

/// The knob table (atf/kernels/knobs.hpp).
template <typename Params, typename Visit>
  requires std::same_as<std::remove_cvref_t<Params>, params>
void visit_knobs(Params&& p, Visit&& visit) {
  visit("TX", p.tx);
  visit("TY", p.ty);
  visit("LX", p.lx);
  visit("LY", p.ly);
  visit("VEC", p.vec);
  visit("UNROLL", p.unroll);
  visit("HALO_LMEM", p.halo_lmem);
}

struct tuning_setup {
  atf::tp<std::uint64_t> tx, lx, vec;  ///< x-edge divides-chain
  atf::tp<std::uint64_t> ty, ly;      ///< y-edge divides-chain
  atf::tp<std::uint64_t> unroll;      ///< singleton
  atf::tp<bool> halo_lmem;            ///< lmem-guarded, joins the merged group

  /// Two dependency groups: the tile/thread/staging web and the radius
  /// unroll singleton.
  [[nodiscard]] std::vector<atf::tp_group> groups() const {
    return {atf::G(tx, lx, vec, ty, ly, halo_lmem), atf::G(unroll)};
  }
};

[[nodiscard]] tuning_setup make_tuning_parameters(
    const problem& prob, std::size_t max_work_group_size = 1024,
    std::size_t local_mem_bytes = 48 * 1024);

/// Launch: ceil-rounded tile grid over the interior, LX x LY threads.
[[nodiscard]] ocls::nd_range launch_range(const problem& prob,
                                          const params& p);

/// Full validity predicate (brute-force oracle for the space tests).
[[nodiscard]] bool valid(const problem& prob, const params& p,
                         std::size_t max_work_group_size = 1024,
                         std::size_t local_mem_bytes = 48 * 1024);

/// Kernel args: (H, W, R scalars, in, out buffers).
[[nodiscard]] ocls::kernel make_kernel();

[[nodiscard]] ocls::define_map make_defines(const problem& prob,
                                            const params& p);

/// The fixed stencil weights (center, ring) the body and references use.
inline constexpr float center_weight = 0.5f;
inline constexpr float ring_weight = 0.125f;

/// Deterministic input grid with exactly-representable entries, so every
/// sweep order produces bitwise-identical sums.
[[nodiscard]] std::vector<float> make_input(const problem& prob);

/// The scalar reference sweep (interior stencil + boundary copy).
[[nodiscard]] std::vector<float> reference_stencil(const problem& prob,
                                                   const std::vector<float>& in);

}  // namespace atf::kernels::stencil2d
