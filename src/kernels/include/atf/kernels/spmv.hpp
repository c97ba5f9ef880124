// A tunable CSR SpMV — the irregular workload family of the kernel suite
// (DESIGN.md §14): y = A * x for a sparse A in compressed-sparse-row form.
//
// The landscape is *structurally* unlike GEMM's: there are no tile-edge
// divides-chains at all. The knobs trade lane utilization against load
// balance on rows of varying length, and every constraint is an occupancy
// bound — against the device's SIMD width and work-group limit — rather
// than a divisibility web:
//
//   VW    threads cooperating on one row ("CSR-vector" width), in
//         {1,2,4,8,16,32}; VW <= device SIMD width, VW | WG
//   WG    work-group size, a power of two in {32..1024}, <= device limit
//   RPB   row-blocks each thread-row processes before the group exits,
//         in {1..8} (larger RPB amortizes scheduling and averages out
//         row-length variance, but shrinks the launch)
//   UNROLL  nnz-loop unrolling, in {1,2,4} (free knob)
//
// A work-group owns (WG / VW) * RPB consecutive rows. The synthetic matrix
// generator is deterministic and exposes an *irregularity factor*: row
// lengths spread around the mean by up to ±skew, which the cost model
// converts into divergence and imbalance penalties — the phenomena that
// make SpMV tuning genuinely different per device.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "atf/kernels/knobs.hpp"
#include "atf/tp.hpp"
#include "ocls/device.hpp"
#include "ocls/kernel.hpp"
#include "ocls/ndrange.hpp"

namespace atf::kernels::spmv {

struct problem {
  std::size_t rows = 0;        ///< matrix rows (== columns; square)
  std::size_t nnz_mean = 8;    ///< average non-zeros per row
  double skew = 0.5;           ///< irregularity in [0,1): row length varies
                               ///< in [mean*(1-skew), mean*(1+skew)]
};

/// A deterministic synthetic CSR matrix (plus the dense x vector). Row
/// lengths follow a fixed hash of the row index, so every caller — cost
/// function, reference check, tests — sees the same matrix.
struct csr_matrix {
  std::vector<std::uint32_t> row_ptr;  ///< rows+1 entries
  std::vector<std::uint32_t> cols;     ///< nnz entries
  std::vector<float> vals;             ///< nnz entries
  std::vector<float> x;                ///< rows entries

  [[nodiscard]] std::size_t nnz() const { return cols.size(); }
};

[[nodiscard]] csr_matrix make_matrix(const problem& prob,
                                     std::uint64_t seed = 0x5ee);

/// The scalar reference y = A * x.
[[nodiscard]] std::vector<float> reference_spmv(const csr_matrix& m);

struct params {
  std::uint64_t vw = 4;
  std::uint64_t wg = 128;
  std::uint64_t rpb = 1;
  std::uint64_t unroll = 1;

  friend bool operator==(const params&, const params&) = default;
};

/// The knob table (atf/kernels/knobs.hpp).
template <typename Params, typename Visit>
  requires std::same_as<std::remove_cvref_t<Params>, params>
void visit_knobs(Params&& p, Visit&& visit) {
  visit("VW", p.vw);
  visit("WG", p.wg);
  visit("RPB", p.rpb);
  visit("UNROLL", p.unroll);
}

struct tuning_setup {
  atf::tp<std::uint64_t> vw, wg;      ///< occupancy-coupled pair
  atf::tp<std::uint64_t> rpb;        ///< singleton
  atf::tp<std::uint64_t> unroll;     ///< singleton

  [[nodiscard]] std::vector<atf::tp_group> groups() const {
    return {atf::G(vw, wg), atf::G(rpb), atf::G(unroll)};
  }
};

[[nodiscard]] tuning_setup make_tuning_parameters(
    const problem& prob, const ocls::device_profile& dev);

/// Rows a single work-group covers: (WG / VW) * RPB.
[[nodiscard]] std::size_t rows_per_group(const params& p);

/// Launch: 1D, ceil(rows / rows_per_group) groups of WG threads.
[[nodiscard]] ocls::nd_range launch_range(const problem& prob,
                                          const params& p);

/// Full validity predicate (brute-force oracle for the space tests).
[[nodiscard]] bool valid(const problem& prob, const params& p,
                         const ocls::device_profile& dev);

/// Kernel args: (ROWS scalar, row_ptr, cols, vals, x, y buffers).
[[nodiscard]] ocls::kernel make_kernel();

[[nodiscard]] ocls::define_map make_defines(const problem& prob,
                                            const params& p);

}  // namespace atf::kernels::spmv
