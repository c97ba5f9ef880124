#include "atf/kernels/spmv.hpp"

#include <algorithm>
#include <cmath>

#include "atf/common/math_utils.hpp"
#include "atf/constraint.hpp"
#include "atf/range.hpp"
#include "ocls/buffer.hpp"
#include "ocls/error.hpp"

namespace atf::kernels::spmv {

namespace {

/// splitmix64 — the row hash behind the deterministic generator.
std::uint64_t mix(std::uint64_t z) {
  z += 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

/// Row lengths spread uniformly in [mean*(1-skew), mean*(1+skew)], driven
/// by a fixed hash of the row index.
std::size_t row_length(const problem& prob, std::uint64_t h) {
  const double u = static_cast<double>(h % 10'000) / 10'000.0;  // [0,1)
  const double len_d = static_cast<double>(prob.nnz_mean) *
                       (1.0 - prob.skew + 2.0 * prob.skew * u);
  const auto len = static_cast<std::size_t>(std::llround(len_d));
  return std::clamp<std::size_t>(len, 1, prob.rows);
}

std::uint64_t row_hash(std::uint64_t seed, std::size_t row) {
  return mix(seed ^ (row * 0x9e3779b97f4a7c15ULL + 1));
}

std::uint64_t total_nnz(const problem& prob, std::uint64_t seed) {
  std::uint64_t nnz = 0;
  for (std::size_t row = 0; row < prob.rows; ++row) {
    nnz += row_length(prob, row_hash(seed, row));
  }
  return nnz;
}

}  // namespace

csr_matrix make_matrix(const problem& prob, std::uint64_t seed) {
  csr_matrix m;
  m.row_ptr.reserve(prob.rows + 1);
  m.row_ptr.push_back(0);

  // Every value and x entry is a small multiple of a power of two, so the
  // row sums are exact in float no matter how lanes partition them — the
  // reference check is bitwise regardless of VW.
  for (std::size_t row = 0; row < prob.rows; ++row) {
    const std::uint64_t h = row_hash(seed, row);
    const std::size_t len = row_length(prob, h);

    const std::size_t start = h % prob.rows;
    const std::size_t stride = std::max<std::size_t>(1, prob.rows / len);
    for (std::size_t j = 0; j < len; ++j) {
      const std::size_t col = (start + j * stride) % prob.rows;
      const std::uint64_t hv = mix(h ^ (j + 0x632be59bd9b4e019ULL));
      m.cols.push_back(static_cast<std::uint32_t>(col));
      m.vals.push_back(static_cast<float>(static_cast<int>(hv % 7) - 3) *
                       0.25f);
    }
    m.row_ptr.push_back(static_cast<std::uint32_t>(m.cols.size()));
  }

  m.x.reserve(prob.rows);
  for (std::size_t i = 0; i < prob.rows; ++i) {
    m.x.push_back(static_cast<float>(static_cast<int>(i % 13) - 6) * 0.125f);
  }
  return m;
}

std::vector<float> reference_spmv(const csr_matrix& m) {
  const std::size_t rows = m.row_ptr.size() - 1;
  std::vector<float> y(rows, 0.0f);
  for (std::size_t row = 0; row < rows; ++row) {
    float acc = 0.0f;
    for (std::uint32_t j = m.row_ptr[row]; j < m.row_ptr[row + 1]; ++j) {
      acc += m.vals[j] * m.x[m.cols[j]];
    }
    y[row] = acc;
  }
  return y;
}

tuning_setup make_tuning_parameters(const problem& prob,
                                    const ocls::device_profile& dev) {
  (void)prob;  // the occupancy bounds come from the device, not the size
  const std::uint64_t simd = dev.simd_width;
  const std::uint64_t max_wg = dev.max_work_group_size;

  atf::tp<std::uint64_t> vw("VW",
                            atf::set<std::uint64_t>({1, 2, 4, 8, 16, 32}),
                            atf::less_equal(simd));
  atf::tp<std::uint64_t> wg(
      "WG", atf::set<std::uint64_t>({32, 64, 128, 256, 512, 1024}),
      atf::is_multiple_of(vw) && atf::less_equal(max_wg));
  atf::tp<std::uint64_t> rpb("RPB", atf::interval<std::uint64_t>(1, 8));
  atf::tp<std::uint64_t> unroll("UNROLL", atf::set<std::uint64_t>({1, 2, 4}));

  return tuning_setup{std::move(vw), std::move(wg), std::move(rpb),
                      std::move(unroll)};
}

std::size_t rows_per_group(const params& p) {
  return static_cast<std::size_t>(p.wg / p.vw) * p.rpb;
}

ocls::nd_range launch_range(const problem& prob, const params& p) {
  const std::size_t groups = common::ceil_div(prob.rows, rows_per_group(p));
  return ocls::nd_range::d1(groups * p.wg, p.wg);
}

bool valid(const problem& prob, const params& p,
           const ocls::device_profile& dev) {
  (void)prob;
  const auto in_set = [](std::uint64_t v,
                         std::initializer_list<std::uint64_t> s) {
    return std::find(s.begin(), s.end(), v) != s.end();
  };
  if (!in_set(p.vw, {1, 2, 4, 8, 16, 32})) return false;
  if (!in_set(p.wg, {32, 64, 128, 256, 512, 1024})) return false;
  if (!in_set(p.unroll, {1, 2, 4})) return false;
  if (p.rpb < 1 || p.rpb > 8) return false;
  if (p.vw > dev.simd_width) return false;
  if (p.wg > dev.max_work_group_size) return false;
  if (p.wg % p.vw != 0) return false;
  return true;
}

namespace {

void body(const ocls::nd_item& item, const ocls::kernel_args& args,
          const ocls::define_map& defines) {
  if (args.size() != 6) {
    throw ocls::invalid_kernel_args(
        "spmv expects (ROWS, row_ptr, cols, vals, x, y)");
  }
  const auto rows = args[0].scalar<std::size_t>();
  auto& row_ptr = args[1].buf<std::uint32_t>();
  auto& cols = args[2].buf<std::uint32_t>();
  auto& vals = args[3].buf<float>();
  auto& x = args[4].buf<float>();
  auto& y = args[5].buf<float>();

  const std::uint64_t vw = defines.get_uint("VW");
  const std::uint64_t rpb = defines.get_uint("RPB");
  const std::size_t lid = item.local_id(0);
  if (lid % vw != 0) return;  // lane 0 computes the whole team's reduction

  const std::size_t teams = item.local_size(0) / vw;
  const std::size_t team = lid / vw;
  const std::size_t first_row =
      (item.group_id(0) * teams + team) * rpb;

  for (std::uint64_t b = 0; b < rpb; ++b) {
    const std::size_t row = first_row + b;
    if (row >= rows) return;
    // The CSR-vector access pattern: lane l covers j = start+l, start+l+VW,
    // ...; partials are then reduced. The simulator runs it on lane 0, in
    // the same partial-then-reduce order.
    float acc = 0.0f;
    for (std::uint64_t lane = 0; lane < vw; ++lane) {
      float partial = 0.0f;
      for (std::uint32_t j = row_ptr[row] + lane; j < row_ptr[row + 1];
           j += static_cast<std::uint32_t>(vw)) {
        partial += vals[j] * x[cols[j]];
      }
      acc += partial;
    }
    y[row] = acc;
  }
}

std::size_t local_mem(const ocls::define_map& defines) {
  // Cross-lane reduction scratch: one float per work-item when VW > 1.
  if (defines.get_uint("VW") <= 1) return 0;
  return defines.get_uint("WG") * sizeof(float);
}

ocls::perf_estimate model(const ocls::nd_range& range,
                          const ocls::device_profile& dev,
                          const ocls::define_map& defines) {
  const double rows = static_cast<double>(defines.get_uint("ROWS"));
  const double nnz = static_cast<double>(defines.get_uint("NNZ"));
  const double skew = defines.get_double("SKEW");
  const params p = from_defines<params>(defines);

  const double nnz_mean = nnz / rows;
  const double num_wgs =
      static_cast<double>(range.global[0] / range.local[0]);
  const double cus = static_cast<double>(dev.compute_units);
  const double wgs_per_cu = std::ceil(num_wgs / cus);

  // Lane utilization: a team of VW lanes strip-mines an average row of
  // nnz_mean entries; trailing-iteration waste grows with VW.
  const double vw_d = static_cast<double>(p.vw);
  const double lane_eff =
      nnz_mean / (std::ceil(nnz_mean / vw_d) * vw_d);

  // Imbalance: the group retires at its longest row chain. Each thread-row
  // averages RPB consecutive rows, so the spread shrinks like 1/sqrt(RPB).
  const double imbalance =
      1.0 + skew / std::sqrt(static_cast<double>(p.rpb));

  // Compute: 2 flops per non-zero, deflated by lane waste and loop
  // overhead (unrolling recovers a little of the latter).
  const double unroll_eff =
      static_cast<double>(p.unroll) / (static_cast<double>(p.unroll) + 0.15);
  double simd_eff = 1.0;
  if (dev.kind == ocls::device_kind::gpu) {
    const double threads = static_cast<double>(range.local[0]);
    const double simd = static_cast<double>(dev.simd_width);
    simd_eff = threads / (std::ceil(threads / simd) * simd);
  }
  const double flops_per_wg = 2.0 * nnz / num_wgs;
  const double rate = dev.flops_per_cu_per_cycle * dev.clock_ghz *
                      unroll_eff * simd_eff * std::max(lane_eff, 0.05);
  const double t_compute = wgs_per_cu * flops_per_wg / rate;

  // Traffic: vals + cols stream once (8 B/nnz), row_ptr and y stream once
  // (8 B/row); the x gather wastes most of each transaction unless the
  // vector is LLC-resident.
  const double x_bytes = rows * 4.0;
  const bool x_cached = x_bytes < static_cast<double>(dev.llc_bytes);
  const double gather_waste = x_cached ? 1.0 : 4.0;
  const double bytes =
      nnz * 8.0 + rows * 8.0 + nnz * 4.0 * gather_waste;
  double bw = dev.peak_bytes_per_s();
  if (x_cached) bw *= std::min(dev.cache_bw_multiplier, 1.5);
  const double t_mem = bytes / (bw * 0.85) * 1e9;
  const double t_sched =
      wgs_per_cu * dev.workgroup_overhead_ns + dev.launch_overhead_ns;

  const double t = (std::max(t_compute, t_mem) + t_sched) * imbalance;
  const double busy = std::min(num_wgs, cus) / cus;
  const double util =
      busy * std::max(lane_eff, 0.1) / imbalance;
  return {t, std::clamp(util, 0.05, 1.0)};
}

}  // namespace

ocls::define_map make_defines(const problem& prob, const params& p) {
  // The model needs the matrix's aggregate shape; re-derive the total from
  // the deterministic row lengths without materializing the matrix.
  ocls::define_map defines;
  defines.set("ROWS", static_cast<std::uint64_t>(prob.rows));
  defines.set("NNZ", total_nnz(prob, 0x5ee));
  defines.set("SKEW", prob.skew);
  to_defines(p, defines);
  return defines;
}

ocls::kernel make_kernel() {
  ocls::kernel k("spmv_csr_vector");
  k.set_body(body);
  k.set_perf_model(model);
  k.set_local_mem_model(local_mem);
  return k;
}

}  // namespace atf::kernels::spmv
