#include "atf/kernels/batched_gemm.hpp"

#include <algorithm>
#include <cmath>
#include <span>

#include "atf/common/math_utils.hpp"
#include "atf/constraint.hpp"
#include "atf/kernels/reference.hpp"
#include "atf/range.hpp"
#include "ocls/buffer.hpp"
#include "ocls/error.hpp"

namespace atf::kernels::batched_gemm {

namespace {

std::size_t staged_bytes(const problem& prob, std::uint64_t bpw) {
  return static_cast<std::size_t>(bpw) *
         (prob.m * prob.k + prob.k * prob.n) * sizeof(float);
}

}  // namespace

tuning_setup make_tuning_parameters(const problem& prob,
                                    const ocls::device_profile& dev) {
  const std::uint64_t m = prob.m;
  const std::uint64_t n = prob.n;
  const std::uint64_t k = prob.k;
  const std::uint64_t max_wg = dev.max_work_group_size;
  const std::size_t lmem = dev.local_mem_bytes;

  atf::tp<std::uint64_t> tm("TM", atf::interval<std::uint64_t>(1, m),
                            atf::divides(m));
  atf::tp<std::uint64_t> tn("TN", atf::interval<std::uint64_t>(1, n),
                            atf::divides(n));
  atf::tp<std::uint64_t> vecn("VECN", atf::set<std::uint64_t>({1, 2, 4, 8}),
                              atf::divides(tn));
  // The packing constraint: all BPW batches' threads must fit one
  // work-group, coupling BPW to both tile knobs.
  atf::tp<std::uint64_t> bpw(
      "BPW", atf::interval<std::uint64_t>(1, 16),
      atf::less_equal(atf::expr<std::uint64_t>([tm, tn, m, n, max_wg] {
        const std::uint64_t tpb = (m / tm.eval()) * (n / tn.eval());
        return max_wg / std::max<std::uint64_t>(tpb, 1);
      })));
  atf::tp<bool> lmem_ab(
      "LMEM_AB", atf::set(false, true),
      atf::pred([bpw, prob, lmem](bool v) {
        return !v || staged_bytes(prob, bpw.eval()) <= lmem;
      }));
  atf::tp<std::uint64_t> ku("KU", atf::interval<std::uint64_t>(1, k),
                            atf::divides(k));

  return tuning_setup{std::move(tm),  std::move(tn),      std::move(vecn),
                      std::move(bpw), std::move(lmem_ab), std::move(ku)};
}

std::size_t threads_per_batch(const problem& prob, const params& p) {
  return (prob.m / p.tm) * (prob.n / p.tn);
}

ocls::nd_range launch_range(const problem& prob, const params& p) {
  const std::size_t local = threads_per_batch(prob, p) * p.bpw;
  const std::size_t groups = common::ceil_div(prob.batch, p.bpw);
  return ocls::nd_range::d1(groups * local, local);
}

bool valid(const problem& prob, const params& p,
           const ocls::device_profile& dev) {
  const auto is_vec = [](std::uint64_t v) {
    return v == 1 || v == 2 || v == 4 || v == 8;
  };
  if (p.tm == 0 || p.tn == 0 || p.ku == 0 || p.bpw == 0) return false;
  if (p.tm > prob.m || prob.m % p.tm != 0) return false;
  if (p.tn > prob.n || prob.n % p.tn != 0) return false;
  if (!is_vec(p.vecn) || p.tn % p.vecn != 0) return false;
  if (p.bpw > 16) return false;
  if (threads_per_batch(prob, p) * p.bpw > dev.max_work_group_size) {
    return false;
  }
  if (p.lmem_ab && staged_bytes(prob, p.bpw) > dev.local_mem_bytes) {
    return false;
  }
  if (p.ku > prob.k || prob.k % p.ku != 0) return false;
  return true;
}

std::vector<float> make_a(const problem& prob) {
  std::vector<float> a(prob.batch * prob.m * prob.k);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>(static_cast<int>((i * 7 + 3) % 9) - 4) * 0.25f;
  }
  return a;
}

std::vector<float> make_b(const problem& prob) {
  std::vector<float> b(prob.batch * prob.k * prob.n);
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<float>(static_cast<int>((i * 5 + 1) % 11) - 5) * 0.125f;
  }
  return b;
}

std::vector<float> reference_gemm(const problem& prob,
                                  const std::vector<float>& a,
                                  const std::vector<float>& b) {
  const std::size_t a_size = prob.m * prob.k;
  const std::size_t b_size = prob.k * prob.n;
  const std::size_t c_size = prob.m * prob.n;
  std::vector<float> c(prob.batch * c_size);
  for (std::size_t bt = 0; bt < prob.batch; ++bt) {
    reference::gemm(prob.m, prob.n, prob.k,
                    std::span(a).subspan(bt * a_size, a_size),
                    std::span(b).subspan(bt * b_size, b_size),
                    std::span(c).subspan(bt * c_size, c_size));
  }
  return c;
}

namespace {

void body(const ocls::nd_item& item, const ocls::kernel_args& args,
          const ocls::define_map& defines) {
  if (args.size() != 7) {
    throw ocls::invalid_kernel_args(
        "batched_gemm expects (BATCH, M, N, K, A, B, C)");
  }
  const auto batch = args[0].scalar<std::size_t>();
  const auto m = args[1].scalar<std::size_t>();
  const auto n = args[2].scalar<std::size_t>();
  const auto k = args[3].scalar<std::size_t>();
  auto& a = args[4].buf<float>();
  auto& b = args[5].buf<float>();
  auto& c = args[6].buf<float>();

  const std::uint64_t tm = defines.get_uint("TM");
  const std::uint64_t tn = defines.get_uint("TN");
  const std::uint64_t bpw = defines.get_uint("BPW");

  const std::size_t tpb = (m / tm) * (n / tn);
  const std::size_t lid = item.local_id(0);
  const std::size_t slot = lid / tpb;          // which packed batch
  const std::size_t t = lid % tpb;             // thread within the batch
  const std::size_t bt = item.group_id(0) * bpw + slot;
  if (bt >= batch) return;

  const std::size_t ti = t % (m / tm);
  const std::size_t tj = t / (m / tm);
  const std::size_t a0 = bt * m * k;
  const std::size_t b0 = bt * k * n;
  const std::size_t c0 = bt * m * n;

  for (std::uint64_t i = 0; i < tm; ++i) {
    const std::size_t row = ti * tm + i;
    for (std::uint64_t j = 0; j < tn; ++j) {
      const std::size_t col = tj * tn + j;
      float acc = 0.0f;
      for (std::size_t kk = 0; kk < k; ++kk) {
        acc += a[a0 + row * k + kk] * b[b0 + kk * n + col];
      }
      c[c0 + row * n + col] = acc;
    }
  }
}

std::size_t local_mem(const ocls::define_map& defines) {
  if (!defines.get_bool("LMEM_AB")) return 0;
  const std::uint64_t m = defines.get_uint("M");
  const std::uint64_t n = defines.get_uint("N");
  const std::uint64_t k = defines.get_uint("K");
  const std::uint64_t bpw = defines.get_uint("BPW");
  return static_cast<std::size_t>(bpw * (m * k + k * n)) * sizeof(float);
}

ocls::perf_estimate model(const ocls::nd_range& range,
                          const ocls::device_profile& dev,
                          const ocls::define_map& defines) {
  const double batch = static_cast<double>(defines.get_uint("BATCH"));
  const double m = static_cast<double>(defines.get_uint("M"));
  const double n = static_cast<double>(defines.get_uint("N"));
  const double k = static_cast<double>(defines.get_uint("K"));
  const params p = from_defines<params>(defines);

  const double num_wgs =
      static_cast<double>(range.global[0] / range.local[0]);
  const double threads = static_cast<double>(range.local[0]);
  const double cus = static_cast<double>(dev.compute_units);
  const double wgs_per_cu = std::ceil(num_wgs / cus);

  // Compute: 2*m*n*k flops per batch, BPW batches per work-group. Register
  // tiling amortizes the k-loop across TM*TN accumulators, but past ~32 the
  // tile spills; vector width along n recovers issue slots.
  const double tile = static_cast<double>(p.tm * p.tn);
  const double reg_eff = tile <= 32.0 ? 1.0 : std::pow(32.0 / tile, 0.5);
  const double tile_eff = tile / (tile + 2.0);  // loop overhead amortization
  const double vec_eff = 0.6 + 0.4 * std::min(1.0, static_cast<double>(p.vecn) / 4.0);
  const double ku_eff =
      static_cast<double>(p.ku) / (static_cast<double>(p.ku) + 0.3);
  double simd_eff = 1.0;
  if (dev.kind == ocls::device_kind::gpu) {
    const double simd = static_cast<double>(dev.simd_width);
    simd_eff = threads / (std::ceil(threads / simd) * simd);
  }
  const double flops_per_wg = 2.0 * static_cast<double>(p.bpw) * m * n * k;
  const double rate = dev.flops_per_cu_per_cycle * dev.clock_ghz * reg_eff *
                      tile_eff * vec_eff * ku_eff * simd_eff;
  const double t_compute = wgs_per_cu * flops_per_wg / rate;

  // Traffic: staged panels are read once per work-group; unstaged threads
  // re-read their A rows and B columns per register tile.
  const double panel = (m * k + k * n) * 4.0;
  const double reads_per_wg =
      p.lmem_ab ? static_cast<double>(p.bpw) * panel
                : static_cast<double>(p.bpw) *
                      (m * n * k * (1.0 / static_cast<double>(p.tn) +
                                    1.0 / static_cast<double>(p.tm))) *
                      4.0;
  const double bytes = num_wgs * reads_per_wg + batch * m * n * 4.0;
  double bw = dev.peak_bytes_per_s();
  const double working_set = batch * (m * k + k * n + m * n) * 4.0;
  if (working_set < static_cast<double>(dev.llc_bytes)) {
    bw *= dev.cache_bw_multiplier;
  }
  const double t_mem = bytes / (bw * 0.85) * 1e9;

  // Scheduling is the defining term: thousands of small work-groups mean
  // the per-work-group overhead — amortized only by packing — can rival
  // the arithmetic itself.
  const double t_sched =
      wgs_per_cu * dev.workgroup_overhead_ns + dev.launch_overhead_ns;

  const double t = std::max(t_compute, t_mem) + t_sched;
  const double busy = std::min(num_wgs, cus) / cus;
  const double util = busy * simd_eff * (t_compute / std::max(t, 1e-9));
  return {t, std::clamp(util, 0.05, 1.0)};
}

}  // namespace

ocls::define_map make_defines(const problem& prob, const params& p) {
  ocls::define_map defines;
  defines.set("BATCH", static_cast<std::uint64_t>(prob.batch));
  defines.set("M", static_cast<std::uint64_t>(prob.m));
  defines.set("N", static_cast<std::uint64_t>(prob.n));
  defines.set("K", static_cast<std::uint64_t>(prob.k));
  to_defines(p, defines);
  return defines;
}

ocls::kernel make_kernel() {
  ocls::kernel k("batched_gemm_packed");
  k.set_body(body);
  k.set_perf_model(model);
  k.set_local_mem_model(local_mem);
  return k;
}

}  // namespace atf::kernels::batched_gemm
