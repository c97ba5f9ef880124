// CLBlast's XgemmDirect kernel (paper, Section VI): a tiled, vectorized GEMM
//
//   C[m x n] = A[m x k] * B[k x n]
//
// optimized for small matrices (up to 2^10 x 2^10) and used by Caffe. It has
// the paper's 10 tuning parameters:
//
//   WGD            tile size: each work-group computes a WGD x WGD tile of C
//   MDIMCD,NDIMCD  work-group thread grid (MDIMCD x NDIMCD threads)
//   MDIMAD,NDIMBD  thread re-grouping used to load the A / B tiles
//   KWID           k-loop unrolling factor
//   VWMD,VWND      vector widths in the M / N directions
//   PADA,PADB      local-memory padding toggles (bank-conflict avoidance)
//
// and the 17 interdependency constraints reconstructed from CLBlast:
//
//    1. KWID divides WGD
//    2. MDIMCD divides WGD                 3. NDIMCD divides WGD
//    4. MDIMAD divides WGD                 5. NDIMBD divides WGD
//    6. MDIMAD divides MDIMCD*NDIMCD       7. NDIMBD divides MDIMCD*NDIMCD
//    8. MDIMCD*VWMD divides WGD            9. NDIMCD*VWND divides WGD
//   10. MDIMAD*VWMD divides WGD           11. NDIMBD*VWND divides WGD
//   12. MDIMCD*NDIMCD <= max work-group size
//   13. 2*WGD^2 floats of __local memory fit the device (on WGD)
//   14. padded __local memory fits the device (on PADB)
//   15. VWMD in {1,2,4,8}                 16. VWND in {1,2,4,8}
//   17. [restricted mode only] WGD divides M and N of the result matrix —
//       required when the global size must be expressible in CLTune
//       (Div/MulGlobalSize); ATF's general mode instead rounds the global
//       size up to a multiple of the local size, exactly like CLBlast's
//       host code (paper, Section VI-A).
#pragma once

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <string>
#include <type_traits>

#include "atf/configuration.hpp"
#include "atf/tp.hpp"
#include "ocls/device.hpp"
#include "ocls/kernel.hpp"
#include "ocls/ndrange.hpp"

namespace atf::kernels::xgemm {

/// Problem shape: C[m x n] = A[m x k] * B[k x n].
struct problem {
  std::size_t m = 0;
  std::size_t n = 0;
  std::size_t k = 0;
};

/// The paper's four Caffe input sizes (Section VI): "IS i: (m x k) and
/// (k x n)".
[[nodiscard]] problem caffe_input_size(int index);  // index in 1..4

/// One concrete configuration of the 10 parameters.
struct params {
  std::uint64_t wgd = 8;
  std::uint64_t mdimcd = 8;
  std::uint64_t ndimcd = 8;
  std::uint64_t mdimad = 8;
  std::uint64_t ndimbd = 8;
  std::uint64_t kwid = 1;
  std::uint64_t vwmd = 1;
  std::uint64_t vwnd = 1;
  bool pada = true;
  bool padb = true;

  /// The kernel's built-in defaults — "neither optimized for the target
  /// device nor for the input size; chosen to yield a good performance on
  /// average" (paper, Section VI-B: WGD=8, KWID=1, ...).
  [[nodiscard]] static params defaults() { return params{}; }

  [[nodiscard]] static params from_defines(const ocls::define_map& defines);
  void to_defines(ocls::define_map& defines) const;
  [[nodiscard]] std::string to_string() const;
};

/// Calls visit(name, field) once per knob, in declaration order — the one
/// place that maps the ten knob names onto params fields. `p` may be const
/// or a temporary.
template <typename Params, typename Visit>
  requires std::same_as<std::remove_cvref_t<Params>, params>
void visit_knobs(Params&& p, Visit&& visit) {
  visit("WGD", p.wgd);
  visit("MDIMCD", p.mdimcd);
  visit("NDIMCD", p.ndimcd);
  visit("MDIMAD", p.mdimad);
  visit("NDIMBD", p.ndimbd);
  visit("KWID", p.kwid);
  visit("VWMD", p.vwmd);
  visit("VWND", p.vwnd);
  visit("PADA", p.pada);
  visit("PADB", p.padb);
}

/// Decodes a configuration of the tuning parameters below. Throws
/// std::out_of_range when a knob is missing.
[[nodiscard]] params params_from(const atf::configuration& config);

/// How the launch geometry treats matrix extents that WGD does not divide.
enum class size_mode {
  /// CLTune-expressible: the global size is exactly (M/WGD)*MDIMCD x
  /// (N/WGD)*NDIMCD, so WGD must divide M and N (constraint 17).
  restricted,
  /// CLBlast's host code: ceil-rounded global size, any WGD admissible;
  /// the kernel guards out-of-range rows/columns.
  general,
};

/// Device limits consulted by constraints 12-14. Defaults to the K20m.
struct device_limits {
  std::size_t max_work_group_size = 1024;
  std::size_t local_mem_bytes = 48 * 1024;

  [[nodiscard]] static device_limits of(const ocls::device_profile& profile) {
    return {profile.max_work_group_size, profile.local_mem_bytes};
  }
};

/// The 10 tuning parameters wired with the constraints above. The tps share
/// state with the returned group so they can appear in launch-geometry
/// expressions. `range_limit` caps the upper end of the {1..N}-style integer
/// ranges (0 = the paper's max(M, N) behaviour).
struct tuning_setup {
  atf::tp<std::uint64_t> wgd, mdimcd, ndimcd, mdimad, ndimbd, kwid, vwmd,
      vwnd;
  atf::tp<bool> pada, padb;

  [[nodiscard]] atf::tp_group group() const {
    return atf::G(wgd, mdimcd, ndimcd, mdimad, ndimbd, kwid, vwmd, vwnd,
                  pada, padb);
  }
};

[[nodiscard]] tuning_setup make_tuning_parameters(
    const problem& prob, size_mode mode,
    const device_limits& limits = device_limits{},
    std::uint64_t range_limit = 0);

/// Per-parameter unconstrained range sizes (for the Section VI-A
/// unconstrained-space cardinalities, which overflow 64 bits).
[[nodiscard]] std::vector<std::uint64_t> unconstrained_range_sizes(
    const problem& prob, std::uint64_t range_limit = 0);

/// Launch geometry for a configuration.
[[nodiscard]] ocls::nd_range launch_range(const problem& prob,
                                          const params& p, size_mode mode);

/// Full validity check of a configuration — used by the OpenTuner baseline,
/// which searches the unconstrained space and penalizes invalid points
/// (paper, Section VI: "we report a penalty value in case of a
/// configuration for which XgemmDirect's constraints are not satisfied").
[[nodiscard]] bool valid(const problem& prob, const params& p, size_mode mode,
                         const device_limits& limits = device_limits{});

/// The simulated kernel. Functional body args: (M, N, K scalars, A, B, C
/// buffers); all 10 parameters plus M, N, K arrive via defines.
[[nodiscard]] ocls::kernel make_kernel();

/// Writes problem + configuration into a define map (what the cost function
/// does before "compiling").
[[nodiscard]] ocls::define_map make_defines(const problem& prob,
                                            const params& p);

[[nodiscard]] const char* source();

}  // namespace atf::kernels::xgemm
