#include "atf/kernels/xgemm_direct.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "atf/common/math_utils.hpp"
#include "atf/constraint.hpp"
#include "atf/range.hpp"
#include "ocls/buffer.hpp"
#include "ocls/error.hpp"

namespace atf::kernels::xgemm {

problem caffe_input_size(int index) {
  // "IS i: (m x k) and (k x n)" — the four Caffe shapes of Section VI.
  switch (index) {
    case 1:
      return {20, 576, 1};
    case 2:
      return {20, 576, 25};
    case 3:
      return {50, 64, 1};
    case 4:
      return {10, 500, 64};
    default:
      throw std::invalid_argument("caffe_input_size: index must be 1..4");
  }
}

params params::from_defines(const ocls::define_map& defines) {
  params p;
  visit_knobs(p, [&](const char* name, auto& field) {
    if constexpr (std::is_same_v<std::remove_reference_t<decltype(field)>,
                                 bool>) {
      field = defines.get_bool(name);
    } else {
      field = defines.get_uint(name);
    }
  });
  return p;
}

void params::to_defines(ocls::define_map& defines) const {
  visit_knobs(*this, [&](const char* name, const auto& field) {
    defines.set(name, field);
  });
}

params params_from(const atf::configuration& config) {
  params p;
  visit_knobs(p, [&](const char* name, auto& field) {
    field = config.get<std::remove_reference_t<decltype(field)>>(name);
  });
  return p;
}

std::string params::to_string() const {
  ocls::define_map defines;
  to_defines(defines);
  return defines.build_options();
}

namespace {

/// __local floats the kernel allocates: alm[WGD * (WGD + PADA)] and
/// blm[WGD * (WGD + PADB)].
std::size_t local_mem_bytes_for(std::uint64_t wgd, bool pada, bool padb) {
  return static_cast<std::size_t>(wgd * (wgd + (pada ? 1 : 0)) +
                                  wgd * (wgd + (padb ? 1 : 0))) *
         sizeof(float);
}

}  // namespace

tuning_setup make_tuning_parameters(const problem& prob, size_mode mode,
                                    const device_limits& limits,
                                    std::uint64_t range_limit) {
  const std::uint64_t m = prob.m;
  const std::uint64_t n = prob.n;
  std::uint64_t top = std::max<std::uint64_t>(
      {prob.m, prob.n, prob.k, std::uint64_t{1}});
  if (range_limit != 0) {
    top = std::min(top, range_limit);
  }

  const std::size_t lmem = limits.local_mem_bytes;
  const std::uint64_t max_wg = limits.max_work_group_size;

  // WGD in {1..N}. Constraint 13 (unpadded tiles must fit local memory)
  // is attached here so oversized tiles are pruned before their subtrees
  // are expanded; constraint 17 (restricted mode) also lives here.
  auto wgd_fits = atf::pred([lmem](std::uint64_t v) {
    return local_mem_bytes_for(v, false, false) <= lmem;
  });
  atf::tp<std::uint64_t> wgd =
      mode == size_mode::restricted
          ? atf::tp<std::uint64_t>("WGD", atf::interval<std::uint64_t>(1, top),
                                   wgd_fits && atf::divides(m) &&
                                       atf::divides(n))
          : atf::tp<std::uint64_t>("WGD", atf::interval<std::uint64_t>(1, top),
                                   wgd_fits);

  // Thread grid: MDIMCD | WGD (2), NDIMCD | WGD (3), product within the
  // device work-group limit (12).
  atf::tp<std::uint64_t> mdimcd("MDIMCD", atf::interval<std::uint64_t>(1, top),
                                atf::divides(wgd));
  atf::tp<std::uint64_t> ndimcd(
      "NDIMCD", atf::interval<std::uint64_t>(1, top),
      atf::divides(wgd) && atf::less_equal(atf::expr<std::uint64_t>(
                               [mdimcd, max_wg] {
                                 return max_wg / std::max<std::uint64_t>(
                                                     mdimcd.eval(), 1);
                               })));

  // Load grids: divide WGD (4, 5) and repartition the thread grid (6, 7).
  atf::tp<std::uint64_t> mdimad("MDIMAD", atf::interval<std::uint64_t>(1, top),
                                atf::divides(wgd) &&
                                    atf::divides(mdimcd * ndimcd));
  atf::tp<std::uint64_t> ndimbd("NDIMBD", atf::interval<std::uint64_t>(1, top),
                                atf::divides(wgd) &&
                                    atf::divides(mdimcd * ndimcd));

  // Loop unrolling: KWID | WGD (1).
  atf::tp<std::uint64_t> kwid("KWID", atf::interval<std::uint64_t>(1, top),
                              atf::divides(wgd));

  // Vector widths in {1,2,4,8} (15, 16) with the divisibility conditions
  // (8, 10) and (9, 11).
  atf::tp<std::uint64_t> vwmd(
      "VWMD", atf::set<std::uint64_t>({1, 2, 4, 8}),
      atf::divides(wgd / mdimcd) && atf::divides(wgd / mdimad));
  atf::tp<std::uint64_t> vwnd(
      "VWND", atf::set<std::uint64_t>({1, 2, 4, 8}),
      atf::divides(wgd / ndimcd) && atf::divides(wgd / ndimbd));

  // Padding toggles; PADB additionally guards the padded allocation (14).
  atf::tp<bool> pada("PADA", atf::set(false, true));
  atf::tp<bool> padb("PADB", atf::set(false, true),
                     atf::pred([wgd, pada, lmem](bool v) {
                       return local_mem_bytes_for(wgd.eval(), pada.eval(),
                                                  v) <= lmem;
                     }));

  return tuning_setup{std::move(wgd),  std::move(mdimcd), std::move(ndimcd),
                      std::move(mdimad), std::move(ndimbd), std::move(kwid),
                      std::move(vwmd), std::move(vwnd),   std::move(pada),
                      std::move(padb)};
}

std::vector<std::uint64_t> unconstrained_range_sizes(
    const problem& prob, std::uint64_t range_limit) {
  std::uint64_t top = std::max<std::uint64_t>(
      {prob.m, prob.n, prob.k, std::uint64_t{1}});
  if (range_limit != 0) {
    top = std::min(top, range_limit);
  }
  // Six {1..N} integers, two {1,2,4,8} vectors, two booleans.
  return {top, top, top, top, top, top, 4, 4, 2, 2};
}

ocls::nd_range launch_range(const problem& prob, const params& p,
                            size_mode mode) {
  std::size_t tiles_m;
  std::size_t tiles_n;
  if (mode == size_mode::restricted) {
    tiles_m = prob.m / p.wgd;
    tiles_n = prob.n / p.wgd;
  } else {
    // CLBlast's host code: global size rounded up so any WGD works.
    tiles_m = common::ceil_div(prob.m, p.wgd);
    tiles_n = common::ceil_div(prob.n, p.wgd);
  }
  return ocls::nd_range::d2(tiles_m * p.mdimcd, tiles_n * p.ndimcd, p.mdimcd,
                            p.ndimcd);
}

bool valid(const problem& prob, const params& p, size_mode mode,
           const device_limits& limits) {
  const auto is_vw = [](std::uint64_t v) {
    return v == 1 || v == 2 || v == 4 || v == 8;
  };
  if (p.wgd == 0 || p.mdimcd == 0 || p.ndimcd == 0 || p.mdimad == 0 ||
      p.ndimbd == 0 || p.kwid == 0) {
    return false;
  }
  if (!is_vw(p.vwmd) || !is_vw(p.vwnd)) {
    return false;  // (15, 16)
  }
  if (p.wgd % p.kwid != 0) return false;                       // (1)
  if (p.wgd % p.mdimcd != 0) return false;                     // (2)
  if (p.wgd % p.ndimcd != 0) return false;                     // (3)
  if (p.wgd % p.mdimad != 0) return false;                     // (4)
  if (p.wgd % p.ndimbd != 0) return false;                     // (5)
  if ((p.mdimcd * p.ndimcd) % p.mdimad != 0) return false;     // (6)
  if ((p.mdimcd * p.ndimcd) % p.ndimbd != 0) return false;     // (7)
  if (p.wgd % (p.mdimcd * p.vwmd) != 0) return false;          // (8)
  if (p.wgd % (p.ndimcd * p.vwnd) != 0) return false;          // (9)
  if (p.wgd % (p.mdimad * p.vwmd) != 0) return false;          // (10)
  if (p.wgd % (p.ndimbd * p.vwnd) != 0) return false;          // (11)
  if (p.mdimcd * p.ndimcd > limits.max_work_group_size) return false;  // (12)
  if (local_mem_bytes_for(p.wgd, p.pada, p.padb) >
      limits.local_mem_bytes) {
    return false;  // (13, 14)
  }
  if (mode == size_mode::restricted &&
      (prob.m % p.wgd != 0 || prob.n % p.wgd != 0)) {
    return false;  // (17)
  }
  return true;
}

const char* source() {
  return R"(// XgemmDirect (abridged): each work-group of MDIMCD x NDIMCD threads
// computes a WGD x WGD tile of C, staging A and B tiles in __local memory
// (padded by PADA/PADB), unrolling the k-loop by KWID and vectorizing loads
// by VWMD/VWND. See CLBlast's xgemm_direct_part[1-3].cl for the original.
__kernel void XgemmDirect(const int kSizeM, const int kSizeN,
                          const int kSizeK,
                          const __global float* agm,
                          const __global float* bgm,
                          __global float* cgm)
{ /* simulated functionally by ocls */ })";
}

namespace {

void body(const ocls::nd_item& item, const ocls::kernel_args& args,
          const ocls::define_map& defines) {
  if (args.size() != 6) {
    throw ocls::invalid_kernel_args("XgemmDirect expects (M, N, K, A, B, C)");
  }
  const auto m = args[0].scalar<std::size_t>();
  const auto n = args[1].scalar<std::size_t>();
  const auto k = args[2].scalar<std::size_t>();
  auto& a = args[3].buf<float>();
  auto& b = args[4].buf<float>();
  auto& c = args[5].buf<float>();

  const std::uint64_t wgd = defines.get_uint("WGD");
  const std::size_t mdimcd = item.local_size(0);
  const std::size_t ndimcd = item.local_size(1);

  // Thread (li, lj) of tile (gm, gn) computes the elements
  //   row = gm*WGD + li + a*MDIMCD,  col = gn*WGD + lj + b*NDIMCD
  // with the ceil-rounded global size, rows/cols beyond M/N are guarded —
  // exactly the "general" size mode of CLBlast's host code.
  const std::size_t li = item.local_id(0);
  const std::size_t lj = item.local_id(1);
  const std::size_t tile_row = item.group_id(0) * wgd;
  const std::size_t tile_col = item.group_id(1) * wgd;

  for (std::size_t i = tile_row + li; i < tile_row + wgd; i += mdimcd) {
    if (i >= m) {
      continue;
    }
    for (std::size_t j = tile_col + lj; j < tile_col + wgd; j += ndimcd) {
      if (j >= n) {
        continue;
      }
      float acc = 0.0f;
      for (std::size_t p = 0; p < k; ++p) {
        acc += a[i * k + p] * b[p * n + j];
      }
      c[i * n + j] = acc;
    }
  }
}

std::size_t local_mem(const ocls::define_map& defines) {
  return local_mem_bytes_for(defines.get_uint("WGD"),
                             defines.get_bool("PADA"),
                             defines.get_bool("PADB"));
}

/// Calibration constants of the analytical model. Values were fitted so
/// that the relative behaviour documented in the paper holds on the two
/// built-in device profiles (see EXPERIMENTS.md); they are ordinary code
/// constants, not tuning parameters.
struct model_constants {
  // GPU: threads needed resident per SM before latency is fully hidden.
  double gpu_latency_threads = 512.0;
  // GPU: fraction of peak at VW=1; each doubling of VWMD/VWND up to 4
  // recovers vec_step.
  double gpu_vec_base = 0.72;
  double gpu_vec_step = 0.07;
  // CPU: fraction of peak reachable without vectorization; VWMD drives the
  // rest (AVX lanes).
  double cpu_vec_base = 0.18;
  // Penalty per tile dimension that overhangs the matrix (ceil-rounded
  // global sizes leave partially valid tiles): warp divergence on the GPU,
  // masked/partial vector iterations on the CPU.
  double gpu_tail_penalty = 0.42;
  double cpu_tail_penalty = 0.25;
  // CPU: fixed per-work-item cost per staged k-chunk (the runtime's
  // work-item loop bookkeeping around each barrier region).
  double cpu_wi_chunk_ns = 2.5;
  // k-loop bookkeeping cost relative to one unrolled iteration.
  double gpu_loop_overhead = 0.35;
  double cpu_loop_overhead = 0.55;
  // Register pressure: per unroll step beyond 8 the compiler starts
  // spilling accumulators.
  double spill_per_kwid = 0.99;
  // Local-memory bank-conflict penalty on unpadded tiles (GPU only).
  double bank_conflict_penalty = 1.07;
  // Effective-bandwidth model: fraction recovered at contiguous run r
  // (elements): eff = min(1, coal_base + r / coal_run).
  double gpu_coal_base = 0.30;
  double gpu_coal_run = 24.0;
  double cpu_mem_eff = 0.85;
  // Thread-grid granularity: work-items per thread below which the GPU
  // pipeline starves (register-level ILP).
  double gpu_ilp_need = 2.0;
};

ocls::perf_estimate model(const ocls::nd_range& range,
                          const ocls::device_profile& dev,
                          const ocls::define_map& defines) {
  const model_constants c;

  const double m = static_cast<double>(defines.get_uint("M"));
  const double n = static_cast<double>(defines.get_uint("N"));
  const double k = static_cast<double>(defines.get_uint("K"));
  const params p = params::from_defines(defines);

  const double tiles_m =
      static_cast<double>(range.global[0] / range.local[0]);
  const double tiles_n =
      static_cast<double>(range.global[1] / range.local[1]);
  const double num_wgs = tiles_m * tiles_n;
  const double threads = static_cast<double>(p.mdimcd * p.ndimcd);
  const double wgd = static_cast<double>(p.wgd);
  const double cus = static_cast<double>(dev.compute_units);

  // --- Compute term -------------------------------------------------------
  // Every work-group computes a full WGD x WGD tile; the k-loop is staged
  // in chunks of WGD with zero-padded local tiles, so the effective depth
  // is k rounded UP to a multiple of WGD (XgemmDirect's GlobalToLocalDirect
  // loaders pad out-of-range elements with zeros). Rows/columns beyond M/N
  // are likewise wasted work. 2 flops per multiply-accumulate.
  const double k_chunks = std::ceil(k / wgd);
  const double k_pad = k_chunks * wgd;
  const double flops_per_wg = 2.0 * wgd * wgd * k_pad;

  double vec_eff;
  double unroll_eff;
  double lane_eff = 1.0;
  double latency_eff = 1.0;
  if (dev.kind == ocls::device_kind::gpu) {
    const double vec_doublings =
        std::log2(static_cast<double>(std::min<std::uint64_t>(p.vwmd, 4))) +
        std::log2(static_cast<double>(std::min<std::uint64_t>(p.vwnd, 4)));
    vec_eff = std::min(1.0, c.gpu_vec_base + c.gpu_vec_step * vec_doublings);
    unroll_eff = static_cast<double>(p.kwid) /
                 (static_cast<double>(p.kwid) + c.gpu_loop_overhead);
    if (p.kwid > 8) {
      unroll_eff *= std::pow(c.spill_per_kwid, double(p.kwid - 8));
    }
    // Partial warps waste SIMD lanes.
    const double simd = static_cast<double>(dev.simd_width);
    lane_eff = threads / (std::ceil(threads / simd) * simd);
    // Occupancy: concurrent work-groups per SM are limited by the thread
    // budget (2048), the block slots (16) and local memory.
    const double lmem =
        static_cast<double>(local_mem_bytes_for(p.wgd, p.pada, p.padb));
    const double conc =
        std::max(1.0, std::floor(std::min(
                          {2048.0 / threads, 16.0,
                           static_cast<double>(dev.local_mem_bytes) /
                               std::max(lmem, 1.0)})));
    const double wgs_per_cu = std::ceil(num_wgs / cus);
    const double resident = threads * std::min(conc, wgs_per_cu);
    latency_eff = std::min(1.0, resident / c.gpu_latency_threads);
    // Register-level ILP: threads computing very few C elements cannot
    // keep the FMA pipeline busy.
    const double elems_per_thread = wgd * wgd / threads;
    latency_eff *= elems_per_thread / (elems_per_thread + c.gpu_ilp_need);
  } else {
    // CPU: a work-group runs on one core; AVX lanes are claimed through
    // the M-direction vector width.
    vec_eff = c.cpu_vec_base +
              (1.0 - c.cpu_vec_base) *
                  static_cast<double>(std::min<std::uint64_t>(
                      p.vwmd, dev.simd_width)) /
                  static_cast<double>(dev.simd_width);
    unroll_eff = static_cast<double>(p.kwid) /
                 (static_cast<double>(p.kwid) + c.cpu_loop_overhead);
    if (p.kwid > 8) {
      unroll_eff *= std::pow(c.spill_per_kwid, double(p.kwid - 8));
    }
  }

  double bank_factor = 1.0;
  if (dev.kind == ocls::device_kind::gpu) {
    if (!p.pada) {
      bank_factor *= c.bank_conflict_penalty;
    }
    if (!p.padb) {
      bank_factor *= c.bank_conflict_penalty;
    }
    // Tiles overhanging the matrix edge leave warps partially predicated
    // off — divergence on every k iteration.
    if (tiles_m * wgd > m) {
      bank_factor *= 1.0 + c.gpu_tail_penalty;
    }
    if (tiles_n * wgd > n) {
      bank_factor *= 1.0 + c.gpu_tail_penalty;
    }
  } else {
    // CPU: overhanging tiles run masked/partial vector iterations.
    if (tiles_m * wgd > m) {
      bank_factor *= 1.0 + c.cpu_tail_penalty;
    }
    if (tiles_n * wgd > n) {
      bank_factor *= 1.0 + c.cpu_tail_penalty;
    }
  }

  const double per_cu_rate_flops_per_ns =
      dev.flops_per_cu_per_cycle * dev.clock_ghz * vec_eff * unroll_eff *
      lane_eff * latency_eff / bank_factor;
  const double wgs_per_cu = std::ceil(num_wgs / cus);
  double t_compute_ns =
      wgs_per_cu * flops_per_wg / per_cu_rate_flops_per_ns;
  if (dev.kind == ocls::device_kind::cpu) {
    // The CPU runtime executes a work-group as a loop over its work-items,
    // re-entered after every barrier (one barrier per staged k-chunk).
    t_compute_ns += wgs_per_cu * threads * k_chunks * c.cpu_wi_chunk_ns;
  }

  // --- Memory term --------------------------------------------------------
  // Each work-group streams its A panel (WGD x K) and B panel (K x WGD)
  // once and writes its C tile.
  const double bytes =
      (num_wgs * 2.0 * wgd * k + m * n) * sizeof(float);
  double mem_eff;
  if (dev.kind == ocls::device_kind::gpu) {
    // Coalescing: contiguous run length of the staging loads.
    const double run_a = static_cast<double>(p.mdimad * p.vwmd);
    const double run_b = static_cast<double>(p.ndimbd * p.vwnd);
    const double eff_a = std::min(1.0, c.gpu_coal_base + run_a / c.gpu_coal_run);
    const double eff_b = std::min(1.0, c.gpu_coal_base + run_b / c.gpu_coal_run);
    mem_eff = 0.5 * (eff_a + eff_b);
  } else {
    mem_eff = c.cpu_mem_eff;
  }
  // Deep-learning GEMMs are tiny; re-streamed panels hit the last-level
  // cache, multiplying the effective bandwidth.
  double bw = dev.peak_bytes_per_s();
  const double working_set = (m * k + k * n + m * n) * sizeof(float);
  if (working_set <= static_cast<double>(dev.llc_bytes)) {
    bw *= dev.cache_bw_multiplier;
  }
  const double t_mem_ns = bytes / (bw * mem_eff) * 1e9;

  // --- Scheduling ---------------------------------------------------------
  const double t_sched_ns = wgs_per_cu * dev.workgroup_overhead_ns;

  const double t_ns = std::max(t_compute_ns, t_mem_ns) + t_sched_ns;

  const double busy_cus = std::min(num_wgs, cus) / cus;
  const double utilization = std::clamp(
      busy_cus * (0.4 + 0.6 * std::min(1.0, t_compute_ns /
                                                std::max(t_ns, 1e-9))),
      0.05, 1.0);
  return {t_ns, utilization};
}

}  // namespace

ocls::define_map make_defines(const problem& prob, const params& p) {
  ocls::define_map defines;
  defines.set("M", static_cast<std::uint64_t>(prob.m));
  defines.set("N", static_cast<std::uint64_t>(prob.n));
  defines.set("K", static_cast<std::uint64_t>(prob.k));
  p.to_defines(defines);
  return defines;
}

ocls::kernel make_kernel() {
  ocls::kernel k("XgemmDirect");
  k.set_source(source());
  k.set_body(body);
  k.set_perf_model(model);
  k.set_local_mem_model(local_mem);
  return k;
}

}  // namespace atf::kernels::xgemm
