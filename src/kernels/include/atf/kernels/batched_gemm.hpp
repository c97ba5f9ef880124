// A tunable batched GEMM over many small matrices — the occupancy-bound
// workload family of the kernel suite (DESIGN.md §14):
//
//   C[b] = A[b] * B[b]   for b in 0..BATCH,  A: m x k, B: k x n, C: m x n
//
// Individual products are tiny (m, n, k of a few dozen), so no single batch
// can fill a device; the landscape is ruled by *packing* — how many batches
// share one work-group — and by per-work-group scheduling overhead, not by
// cache blocking. The knobs:
//
//   TM, TN    per-thread register tile; TM | m, TN | n. A thread computes a
//             TM x TN block of its batch's C, so one batch needs
//             (m/TM)*(n/TN) threads.
//   BPW      batches packed per work-group, in {1..16}; the *packing
//             constraint* (m/TM)*(n/TN)*BPW <= max work-group size ties it
//             to both tile knobs.
//   VECN     vector width along n, in {1,2,4,8}; VECN | TN
//   KU       k-loop unrolling, in {1..k}; KU | k
//   LMEM_AB  stage all BPW batches' A and B panels in local memory;
//            BPW * (m*k + k*n) floats must fit the device limit
//
// Launch: 1D, ceil(BATCH / BPW) groups of (m/TM)*(n/TN)*BPW threads. The
// constraint *shape* is a two-sided pincer — divisibility from the problem
// size below (TM | m, TN | n, VECN | TN, KU | k), capacity from the device
// above (packing, local memory) — distinct from both XgemmDirect's deep
// chain web and stencil2d's edge chains; the per-family tests pin it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "atf/kernels/knobs.hpp"
#include "atf/tp.hpp"
#include "ocls/device.hpp"
#include "ocls/kernel.hpp"
#include "ocls/ndrange.hpp"

namespace atf::kernels::batched_gemm {

struct problem {
  std::size_t batch = 0;  ///< number of independent small GEMMs
  std::size_t m = 0;
  std::size_t n = 0;
  std::size_t k = 0;
};

struct params {
  std::uint64_t tm = 2;
  std::uint64_t tn = 2;
  std::uint64_t bpw = 1;
  std::uint64_t vecn = 1;
  std::uint64_t ku = 1;
  bool lmem_ab = false;

  friend bool operator==(const params&, const params&) = default;
};

/// The knob table (atf/kernels/knobs.hpp).
template <typename Params, typename Visit>
  requires std::same_as<std::remove_cvref_t<Params>, params>
void visit_knobs(Params&& p, Visit&& visit) {
  visit("TM", p.tm);
  visit("TN", p.tn);
  visit("BPW", p.bpw);
  visit("VECN", p.vecn);
  visit("KU", p.ku);
  visit("LMEM_AB", p.lmem_ab);
}

struct tuning_setup {
  atf::tp<std::uint64_t> tm, tn, vecn;  ///< register-tile knobs
  atf::tp<std::uint64_t> bpw;          ///< packing knob (references tm, tn)
  atf::tp<bool> lmem_ab;               ///< staging knob (references bpw)
  atf::tp<std::uint64_t> ku;           ///< singleton

  [[nodiscard]] std::vector<atf::tp_group> groups() const {
    return {atf::G(tm, tn, vecn, bpw, lmem_ab), atf::G(ku)};
  }
};

[[nodiscard]] tuning_setup make_tuning_parameters(
    const problem& prob, const ocls::device_profile& dev);

/// Threads serving one batch: (m/TM) * (n/TN).
[[nodiscard]] std::size_t threads_per_batch(const problem& prob,
                                            const params& p);

/// Launch: 1D, ceil(batch / BPW) groups of threads_per_batch * BPW.
[[nodiscard]] ocls::nd_range launch_range(const problem& prob,
                                          const params& p);

/// Full validity predicate (brute-force oracle for the space tests).
[[nodiscard]] bool valid(const problem& prob, const params& p,
                         const ocls::device_profile& dev);

/// Kernel args: (BATCH, M, N, K scalars, A, B, C buffers); A/B/C are the
/// batches concatenated in row-major order.
[[nodiscard]] ocls::kernel make_kernel();

[[nodiscard]] ocls::define_map make_defines(const problem& prob,
                                            const params& p);

/// Deterministic operands with exactly-representable entries, so every
/// accumulation order produces bitwise-identical results.
[[nodiscard]] std::vector<float> make_a(const problem& prob);
[[nodiscard]] std::vector<float> make_b(const problem& prob);

/// The scalar reference C = A * B per batch.
[[nodiscard]] std::vector<float> reference_gemm(const problem& prob,
                                                const std::vector<float>& a,
                                                const std::vector<float>& b);

}  // namespace atf::kernels::batched_gemm
