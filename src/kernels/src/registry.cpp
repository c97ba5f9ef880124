#include "atf/kernels/registry.hpp"

#include <cmath>
#include <cstddef>
#include <memory>
#include <numeric>
#include <span>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "atf/abort_condition.hpp"
#include "atf/cost.hpp"
#include "atf/exhaustive.hpp"
#include "atf/kernels/batched_gemm.hpp"
#include "atf/kernels/conv2d.hpp"
#include "atf/kernels/reduce.hpp"
#include "atf/kernels/reference.hpp"
#include "atf/kernels/saxpy.hpp"
#include "atf/kernels/spmv.hpp"
#include "atf/kernels/stencil2d.hpp"
#include "atf/kernels/xgemm_direct.hpp"
#include "atf/search/opentuner_search.hpp"
#include "atf/search/random_search.hpp"
#include "atf/search/simulated_annealing.hpp"
#include "atf/search/surrogate_search.hpp"
#include "atf/tuner.hpp"
#include "ocls/ocls.hpp"

namespace atf::kernels::registry {

input_size input_size::parse(const std::string& text) {
  input_size size;
  std::string normalized = text;
  for (char& ch : normalized) {
    if (ch == 'X') ch = 'x';  // tolerate "64X64"
  }
  // getline() swallows a trailing separator silently ("8x" -> one token);
  // reject it up front so malformed sizes never half-parse.
  if (!normalized.empty() && normalized.back() == 'x') {
    throw std::invalid_argument("trailing separator in input size '" + text +
                                "'");
  }
  std::string token;
  std::istringstream in(normalized);
  while (std::getline(in, token, 'x')) {
    const auto invalid = [&] {
      return std::invalid_argument("invalid size component '" + token +
                                   "' in '" + text + "'");
    };
    // stoull accepts "-3" (wrapping to 2^64-3), leading whitespace and "+";
    // a component is digits only.
    if (token.empty() ||
        token.find_first_not_of("0123456789") != std::string::npos) {
      throw invalid();
    }
    std::uint64_t v = 0;
    try {
      v = std::stoull(token);
    } catch (const std::out_of_range&) {
      throw invalid();
    }
    if (v == 0) {
      throw invalid();
    }
    size.dims.push_back(v);
  }
  if (size.dims.empty()) {
    throw std::invalid_argument("empty input size '" + text + "'");
  }
  return size;
}

std::string input_size::to_string() const {
  std::string out;
  for (std::size_t i = 0; i < dims.size(); ++i) {
    if (i > 0) out += 'x';
    out += std::to_string(dims[i]);
  }
  return out;
}

namespace {

void expect_dims(const std::string& kernel, const std::string& dim_names,
                 const input_size& size, std::size_t count) {
  if (size.dims.size() != count) {
    throw std::invalid_argument("kernel '" + kernel + "' expects a size of "
                                "the form " + dim_names + " (" +
                                std::to_string(count) + " dimensions), got '" +
                                size.to_string() + "'");
  }
}

/// Launches model-only (no args needed: the analytic models never touch
/// buffers); ocls launch failures become failed evaluations.
double model_launch(ocls::command_queue& queue, const ocls::kernel& k,
                    const ocls::nd_range& range,
                    const ocls::define_map& defines) {
  try {
    return queue.launch(k, range, {}, defines).profile_ns();
  } catch (const ocls::error& e) {
    throw atf::evaluation_error(e.what());
  }
}

bool matches(std::span<const float> got, std::span<const float> want,
             float tolerance = 1e-4f) {
  if (got.size() != want.size()) return false;
  for (std::size_t i = 0; i < got.size(); ++i) {
    if (std::abs(got[i] - want[i]) > tolerance) return false;
  }
  return true;
}

std::shared_ptr<ocls::context> functional_context(const ocls::device& dev) {
  auto ctx = std::make_shared<ocls::context>(dev);
  ctx->execute_functionally(true);
  return ctx;
}

// ---- per-family configuration decoding ------------------------------------

stencil2d::params stencil_params(const atf::configuration& c) {
  stencil2d::params p;
  p.tx = c["TX"];
  p.ty = c["TY"];
  p.lx = c["LX"];
  p.ly = c["LY"];
  p.vec = c["VEC"];
  p.unroll = c["UNROLL"];
  p.halo_lmem = c["HALO_LMEM"];
  return p;
}

spmv::params spmv_params(const atf::configuration& c) {
  spmv::params p;
  p.vw = c["VW"];
  p.wg = c["WG"];
  p.rpb = c["RPB"];
  p.unroll = c["UNROLL"];
  return p;
}

batched_gemm::params bgemm_params(const atf::configuration& c) {
  batched_gemm::params p;
  p.tm = c["TM"];
  p.tn = c["TN"];
  p.bpw = c["BPW"];
  p.vecn = c["VECN"];
  p.ku = c["KU"];
  p.lmem_ab = c["LMEM_AB"];
  return p;
}

conv2d::params conv_params(const atf::configuration& c) {
  conv2d::params p;
  p.tbx = c["TBX"];
  p.tby = c["TBY"];
  p.lx = c["LX"];
  p.ly = c["LY"];
  p.vecx = c["VECX"];
  p.unroll = c["UNROLL"];
  p.use_lmem = c["USE_LMEM"];
  return p;
}

// ---- family adapters -------------------------------------------------------

entry saxpy_entry() {
  entry e;
  e.name = "saxpy";
  e.description = "CLBlast-style saxpy (paper Listing 1)";
  e.dim_names = "N";
  e.default_size = {{65536}};
  e.knob_count = 2;
  e.constraint_summary = "WPT | N; LS | N/WPT (one divides-chain)";
  e.make_groups = [](const input_size& size,
                     const ocls::device_profile&) {
    expect_dims("saxpy", "N", size, 1);
    auto setup = saxpy::make_tuning_parameters(size.dims[0]);
    return std::vector<atf::tp_group>{setup.group()};
  };
  e.make_cost = [](const input_size& size, const ocls::device& dev) {
    expect_dims("saxpy", "N", size, 1);
    const std::size_t n = size.dims[0];
    auto queue = std::make_shared<ocls::command_queue>(
        std::make_shared<ocls::context>(dev));
    const ocls::kernel k = saxpy::make_kernel();
    return std::function<double(const atf::configuration&)>(
        [queue, k, n](const atf::configuration& c) {
          const std::size_t wpt = c["WPT"];
          const std::size_t ls = c["LS"];
          ocls::define_map defines;
          defines.set("N", static_cast<std::uint64_t>(n));
          defines.set("WPT", static_cast<std::uint64_t>(wpt));
          defines.set("LS", static_cast<std::uint64_t>(ls));
          return model_launch(*queue, k, saxpy::launch_range(n, wpt, ls),
                              defines);
        });
  };
  e.reference_check = [](const input_size& size, const ocls::device& dev,
                         const atf::configuration& c) {
    expect_dims("saxpy", "N", size, 1);
    const std::size_t n = size.dims[0];
    const float a = 0.5f;
    std::vector<float> x(n), y(n);
    for (std::size_t i = 0; i < n; ++i) {
      x[i] = static_cast<float>(static_cast<int>((i * 3) % 7) - 3) * 0.25f;
      y[i] = static_cast<float>(static_cast<int>((i * 5) % 9) - 4) * 0.125f;
    }
    std::vector<float> expected = y;
    reference::saxpy(a, x, expected);

    ocls::command_queue queue(functional_context(dev));
    auto xb = std::make_shared<ocls::buffer<float>>(x);
    auto yb = std::make_shared<ocls::buffer<float>>(y);
    const std::size_t wpt = c["WPT"];
    const std::size_t ls = c["LS"];
    ocls::define_map defines;
    defines.set("N", static_cast<std::uint64_t>(n));
    defines.set("WPT", static_cast<std::uint64_t>(wpt));
    defines.set("LS", static_cast<std::uint64_t>(ls));
    (void)queue.launch(saxpy::make_kernel(), saxpy::launch_range(n, wpt, ls),
                       {static_cast<double>(n), a, ocls::arg(xb),
                        ocls::arg(yb)},
                       defines);
    return matches(yb->host(), expected);
  };
  return e;
}

entry reduce_entry() {
  entry e;
  e.name = "reduce";
  e.description = "grid-stride sum reduction with tree phase";
  e.dim_names = "N";
  e.default_size = {{65536}};
  e.knob_count = 3;
  e.constraint_summary = "LS pow2 <= device limit; UNROLL | WPT";
  e.make_groups = [](const input_size& size,
                     const ocls::device_profile& dev) {
    expect_dims("reduce", "N", size, 1);
    auto setup =
        reduce::make_tuning_parameters(size.dims[0], dev.max_work_group_size);
    return std::vector<atf::tp_group>{setup.group()};
  };
  e.make_cost = [](const input_size& size, const ocls::device& dev) {
    expect_dims("reduce", "N", size, 1);
    const std::size_t n = size.dims[0];
    auto queue = std::make_shared<ocls::command_queue>(
        std::make_shared<ocls::context>(dev));
    const ocls::kernel k = reduce::make_kernel();
    return std::function<double(const atf::configuration&)>(
        [queue, k, n](const atf::configuration& c) {
          reduce::params p;
          p.ls = c["LS"];
          p.wpt = c["WPT"];
          p.unroll = c["UNROLL"];
          ocls::define_map defines;
          defines.set("N", static_cast<std::uint64_t>(n));
          defines.set("LS", p.ls);
          defines.set("WPT", p.wpt);
          defines.set("UNROLL", p.unroll);
          return model_launch(*queue, k, reduce::launch_range(n, p), defines);
        });
  };
  e.reference_check = [](const input_size& size, const ocls::device& dev,
                         const atf::configuration& c) {
    expect_dims("reduce", "N", size, 1);
    const std::size_t n = size.dims[0];
    std::vector<float> in(n);
    double want = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      in[i] = static_cast<float>(static_cast<int>((i * 7) % 5) - 2);
      want += in[i];
    }
    reduce::params p;
    p.ls = c["LS"];
    p.wpt = c["WPT"];
    p.unroll = c["UNROLL"];

    ocls::command_queue queue(functional_context(dev));
    auto inb = std::make_shared<ocls::buffer<float>>(in);
    auto partials =
        std::make_shared<ocls::buffer<float>>(reduce::num_groups(n, p));
    ocls::define_map defines;
    defines.set("N", static_cast<std::uint64_t>(n));
    defines.set("LS", p.ls);
    defines.set("WPT", p.wpt);
    defines.set("UNROLL", p.unroll);
    (void)queue.launch(reduce::make_kernel(), reduce::launch_range(n, p),
                       {static_cast<double>(n), ocls::arg(inb),
                        ocls::arg(partials)},
                       defines);
    double got = 0.0;
    for (const float v : partials->host()) got += v;
    return std::abs(got - want) <= 1e-3;
  };
  return e;
}

entry xgemm_entry() {
  entry e;
  e.name = "xgemm";
  e.description = "CLBlast XgemmDirect (paper Section VI)";
  e.dim_names = "MxNxK";
  e.default_size = {{64, 64, 64}};
  e.knob_count = 10;
  e.constraint_summary =
      "17-constraint divisibility web over WGD/MDIM*/NDIM*/VW*/KWID";
  e.make_groups = [](const input_size& size,
                     const ocls::device_profile& dev) {
    expect_dims("xgemm", "MxNxK", size, 3);
    const xgemm::problem prob{size.dims[0], size.dims[1], size.dims[2]};
    auto setup = xgemm::make_tuning_parameters(
        prob, xgemm::size_mode::general, xgemm::device_limits::of(dev));
    return std::vector<atf::tp_group>{setup.group()};
  };
  e.make_cost = [](const input_size& size, const ocls::device& dev) {
    expect_dims("xgemm", "MxNxK", size, 3);
    const xgemm::problem prob{size.dims[0], size.dims[1], size.dims[2]};
    auto queue = std::make_shared<ocls::command_queue>(
        std::make_shared<ocls::context>(dev));
    const ocls::kernel k = xgemm::make_kernel();
    return std::function<double(const atf::configuration&)>(
        [queue, k, prob](const atf::configuration& c) {
          const xgemm::params p = xgemm::params_from(c);
          return model_launch(
              *queue, k,
              xgemm::launch_range(prob, p, xgemm::size_mode::general),
              xgemm::make_defines(prob, p));
        });
  };
  e.reference_check = [](const input_size& size, const ocls::device& dev,
                         const atf::configuration& c) {
    expect_dims("xgemm", "MxNxK", size, 3);
    const xgemm::problem prob{size.dims[0], size.dims[1], size.dims[2]};
    std::vector<float> a(prob.m * prob.k), b(prob.k * prob.n);
    for (std::size_t i = 0; i < a.size(); ++i) {
      a[i] = static_cast<float>(static_cast<int>((i * 7 + 3) % 9) - 4) * 0.25f;
    }
    for (std::size_t i = 0; i < b.size(); ++i) {
      b[i] =
          static_cast<float>(static_cast<int>((i * 5 + 1) % 11) - 5) * 0.125f;
    }
    std::vector<float> expected(prob.m * prob.n, 0.0f);
    reference::gemm(prob.m, prob.n, prob.k, a, b, expected);

    ocls::command_queue queue(functional_context(dev));
    auto ab = std::make_shared<ocls::buffer<float>>(a);
    auto bb = std::make_shared<ocls::buffer<float>>(b);
    auto cb = std::make_shared<ocls::buffer<float>>(expected.size());
    const xgemm::params p = xgemm::params_from(c);
    (void)queue.launch(
        xgemm::make_kernel(),
        xgemm::launch_range(prob, p, xgemm::size_mode::general),
        {static_cast<double>(prob.m), static_cast<double>(prob.n),
         static_cast<double>(prob.k), ocls::arg(ab), ocls::arg(bb),
         ocls::arg(cb)},
        xgemm::make_defines(prob, p));
    return matches(cb->host(), expected, 1e-3f);
  };
  return e;
}

entry conv2d_entry() {
  entry e;
  e.name = "conv2d";
  e.description = "direct 2D convolution (valid padding)";
  e.dim_names = "HxWxRxS";
  e.default_size = {{64, 64, 5, 5}};
  e.knob_count = 7;
  e.constraint_summary =
      "LX | TBX, LY | TBY, VECX | TBX/LX; staged tile lmem bound";
  e.make_groups = [](const input_size& size,
                     const ocls::device_profile& dev) {
    expect_dims("conv2d", "HxWxRxS", size, 4);
    if (size.dims[2] > size.dims[0] || size.dims[3] > size.dims[1]) {
      throw std::invalid_argument(
          "conv2d: the filter must not exceed the input");
    }
    const conv2d::problem prob{size.dims[0], size.dims[1], size.dims[2],
                               size.dims[3]};
    auto setup = conv2d::make_tuning_parameters(prob, dev.max_work_group_size,
                                                dev.local_mem_bytes);
    return setup.groups();
  };
  e.make_cost = [](const input_size& size, const ocls::device& dev) {
    expect_dims("conv2d", "HxWxRxS", size, 4);
    const conv2d::problem prob{size.dims[0], size.dims[1], size.dims[2],
                               size.dims[3]};
    auto queue = std::make_shared<ocls::command_queue>(
        std::make_shared<ocls::context>(dev));
    const ocls::kernel k = conv2d::make_kernel();
    return std::function<double(const atf::configuration&)>(
        [queue, k, prob](const atf::configuration& c) {
          const conv2d::params p = conv_params(c);
          return model_launch(*queue, k, conv2d::launch_range(prob, p),
                              conv2d::make_defines(prob, p));
        });
  };
  e.reference_check = [](const input_size& size, const ocls::device& dev,
                         const atf::configuration& c) {
    expect_dims("conv2d", "HxWxRxS", size, 4);
    const conv2d::problem prob{size.dims[0], size.dims[1], size.dims[2],
                               size.dims[3]};
    std::vector<float> in(prob.height * prob.width);
    std::vector<float> flt(prob.filter_height * prob.filter_width);
    for (std::size_t i = 0; i < in.size(); ++i) {
      in[i] = static_cast<float>((i * 3) % 7) - 3.0f;
    }
    for (std::size_t i = 0; i < flt.size(); ++i) {
      flt[i] = static_cast<float>(i % 4) * 0.5f - 0.75f;
    }
    std::vector<float> expected(prob.out_height() * prob.out_width(), 0.0f);
    for (std::size_t y = 0; y < prob.out_height(); ++y) {
      for (std::size_t x = 0; x < prob.out_width(); ++x) {
        float acc = 0.0f;
        for (std::size_t r = 0; r < prob.filter_height; ++r) {
          for (std::size_t s = 0; s < prob.filter_width; ++s) {
            acc += in[(y + r) * prob.width + (x + s)] *
                   flt[r * prob.filter_width + s];
          }
        }
        expected[y * prob.out_width() + x] = acc;
      }
    }

    ocls::command_queue queue(functional_context(dev));
    auto inb = std::make_shared<ocls::buffer<float>>(in);
    auto fb = std::make_shared<ocls::buffer<float>>(flt);
    auto outb = std::make_shared<ocls::buffer<float>>(expected.size());
    const conv2d::params p = conv_params(c);
    (void)queue.launch(conv2d::make_kernel(), conv2d::launch_range(prob, p),
                       {static_cast<double>(prob.height),
                        static_cast<double>(prob.width),
                        static_cast<double>(prob.filter_height),
                        static_cast<double>(prob.filter_width),
                        ocls::arg(inb), ocls::arg(fb), ocls::arg(outb)},
                       conv2d::make_defines(prob, p));
    return matches(outb->host(), expected, 1e-3f);
  };
  return e;
}

entry stencil2d_entry() {
  entry e;
  e.name = "stencil2d";
  e.description = "2D star stencil, radius R (bandwidth-bound)";
  e.dim_names = "HxWxR";
  e.default_size = {{66, 66, 1}};
  e.knob_count = 7;
  e.constraint_summary =
      "LX | TX, VEC | TX/LX, LY | TY; haloed tile lmem bound";
  e.make_groups = [](const input_size& size,
                     const ocls::device_profile& dev) {
    expect_dims("stencil2d", "HxWxR", size, 3);
    if (size.dims[0] <= 2 * size.dims[2] || size.dims[1] <= 2 * size.dims[2]) {
      throw std::invalid_argument(
          "stencil2d: the grid must exceed twice the radius");
    }
    const stencil2d::problem prob{size.dims[0], size.dims[1], size.dims[2]};
    auto setup = stencil2d::make_tuning_parameters(
        prob, dev.max_work_group_size, dev.local_mem_bytes);
    return setup.groups();
  };
  e.make_cost = [](const input_size& size, const ocls::device& dev) {
    expect_dims("stencil2d", "HxWxR", size, 3);
    const stencil2d::problem prob{size.dims[0], size.dims[1], size.dims[2]};
    auto queue = std::make_shared<ocls::command_queue>(
        std::make_shared<ocls::context>(dev));
    const ocls::kernel k = stencil2d::make_kernel();
    return std::function<double(const atf::configuration&)>(
        [queue, k, prob](const atf::configuration& c) {
          const stencil2d::params p = stencil_params(c);
          return model_launch(*queue, k, stencil2d::launch_range(prob, p),
                              stencil2d::make_defines(prob, p));
        });
  };
  e.reference_check = [](const input_size& size, const ocls::device& dev,
                         const atf::configuration& c) {
    expect_dims("stencil2d", "HxWxR", size, 3);
    const stencil2d::problem prob{size.dims[0], size.dims[1], size.dims[2]};
    const std::vector<float> in = stencil2d::make_input(prob);
    const std::vector<float> expected = stencil2d::reference_stencil(prob, in);

    ocls::command_queue queue(functional_context(dev));
    auto inb = std::make_shared<ocls::buffer<float>>(in);
    auto outb = std::make_shared<ocls::buffer<float>>(in.size());
    const stencil2d::params p = stencil_params(c);
    (void)queue.launch(stencil2d::make_kernel(),
                       stencil2d::launch_range(prob, p),
                       {static_cast<double>(prob.height),
                        static_cast<double>(prob.width),
                        static_cast<double>(prob.radius), ocls::arg(inb),
                        ocls::arg(outb)},
                       stencil2d::make_defines(prob, p));
    return matches(outb->host(), expected, 1e-6f);
  };
  return e;
}

entry spmv_entry() {
  entry e;
  e.name = "spmv";
  e.description = "CSR SpMV on a skewed synthetic matrix (irregular)";
  e.dim_names = "ROWSxNNZ";
  e.default_size = {{2048, 16}};
  e.knob_count = 4;
  e.constraint_summary =
      "VW <= simd width, VW | WG, WG <= device limit (occupancy pincer)";
  e.make_groups = [](const input_size& size,
                     const ocls::device_profile& dev) {
    expect_dims("spmv", "ROWSxNNZ", size, 2);
    const spmv::problem prob{size.dims[0], size.dims[1], 0.5};
    auto setup = spmv::make_tuning_parameters(prob, dev);
    return setup.groups();
  };
  e.make_cost = [](const input_size& size, const ocls::device& dev) {
    expect_dims("spmv", "ROWSxNNZ", size, 2);
    const spmv::problem prob{size.dims[0], size.dims[1], 0.5};
    auto queue = std::make_shared<ocls::command_queue>(
        std::make_shared<ocls::context>(dev));
    const ocls::kernel k = spmv::make_kernel();
    // The aggregate matrix shape the model consumes is size-dependent only;
    // amortize it across evaluations.
    const ocls::define_map base = spmv::make_defines(prob, spmv::params{});
    return std::function<double(const atf::configuration&)>(
        [queue, k, prob, base](const atf::configuration& c) {
          const spmv::params p = spmv_params(c);
          ocls::define_map defines = base;
          p.to_defines(defines);
          return model_launch(*queue, k, spmv::launch_range(prob, p),
                              defines);
        });
  };
  e.reference_check = [](const input_size& size, const ocls::device& dev,
                         const atf::configuration& c) {
    expect_dims("spmv", "ROWSxNNZ", size, 2);
    const spmv::problem prob{size.dims[0], size.dims[1], 0.5};
    const spmv::csr_matrix m = spmv::make_matrix(prob);
    const std::vector<float> expected = spmv::reference_spmv(m);

    ocls::command_queue queue(functional_context(dev));
    auto rp = std::make_shared<ocls::buffer<std::uint32_t>>(m.row_ptr);
    auto cols = std::make_shared<ocls::buffer<std::uint32_t>>(m.cols);
    auto vals = std::make_shared<ocls::buffer<float>>(m.vals);
    auto xb = std::make_shared<ocls::buffer<float>>(m.x);
    auto yb = std::make_shared<ocls::buffer<float>>(prob.rows);
    const spmv::params p = spmv_params(c);
    (void)queue.launch(spmv::make_kernel(), spmv::launch_range(prob, p),
                       {static_cast<double>(prob.rows), ocls::arg(rp),
                        ocls::arg(cols), ocls::arg(vals), ocls::arg(xb),
                        ocls::arg(yb)},
                       spmv::make_defines(prob, p));
    return matches(yb->host(), expected, 1e-6f);
  };
  return e;
}

entry batched_gemm_entry() {
  entry e;
  e.name = "batched_gemm";
  e.description = "many small GEMMs packed into work-groups (occupancy)";
  e.dim_names = "BxMxNxK";
  e.default_size = {{256, 16, 16, 16}};
  e.knob_count = 6;
  e.constraint_summary =
      "TM | M, TN | N, VECN | TN, KU | K; (M/TM)(N/TN)*BPW <= WG limit";
  e.make_groups = [](const input_size& size,
                     const ocls::device_profile& dev) {
    expect_dims("batched_gemm", "BxMxNxK", size, 4);
    const batched_gemm::problem prob{size.dims[0], size.dims[1], size.dims[2],
                                     size.dims[3]};
    auto setup = batched_gemm::make_tuning_parameters(prob, dev);
    return setup.groups();
  };
  e.make_cost = [](const input_size& size, const ocls::device& dev) {
    expect_dims("batched_gemm", "BxMxNxK", size, 4);
    const batched_gemm::problem prob{size.dims[0], size.dims[1], size.dims[2],
                                     size.dims[3]};
    auto queue = std::make_shared<ocls::command_queue>(
        std::make_shared<ocls::context>(dev));
    const ocls::kernel k = batched_gemm::make_kernel();
    return std::function<double(const atf::configuration&)>(
        [queue, k, prob](const atf::configuration& c) {
          const batched_gemm::params p = bgemm_params(c);
          return model_launch(*queue, k, batched_gemm::launch_range(prob, p),
                              batched_gemm::make_defines(prob, p));
        });
  };
  e.reference_check = [](const input_size& size, const ocls::device& dev,
                         const atf::configuration& c) {
    expect_dims("batched_gemm", "BxMxNxK", size, 4);
    const batched_gemm::problem prob{size.dims[0], size.dims[1], size.dims[2],
                                     size.dims[3]};
    const std::vector<float> a = batched_gemm::make_a(prob);
    const std::vector<float> b = batched_gemm::make_b(prob);
    const std::vector<float> expected =
        batched_gemm::reference_gemm(prob, a, b);

    ocls::command_queue queue(functional_context(dev));
    auto ab = std::make_shared<ocls::buffer<float>>(a);
    auto bb = std::make_shared<ocls::buffer<float>>(b);
    auto cb = std::make_shared<ocls::buffer<float>>(expected.size());
    const batched_gemm::params p = bgemm_params(c);
    (void)queue.launch(batched_gemm::make_kernel(),
                       batched_gemm::launch_range(prob, p),
                       {static_cast<double>(prob.batch),
                        static_cast<double>(prob.m),
                        static_cast<double>(prob.n),
                        static_cast<double>(prob.k), ocls::arg(ab),
                        ocls::arg(bb), ocls::arg(cb)},
                       batched_gemm::make_defines(prob, p));
    return matches(cb->host(), expected, 1e-6f);
  };
  return e;
}

}  // namespace

const std::vector<entry>& all() {
  static const std::vector<entry> entries = [] {
    std::vector<entry> list;
    list.push_back(saxpy_entry());
    list.push_back(reduce_entry());
    list.push_back(xgemm_entry());
    list.push_back(conv2d_entry());
    list.push_back(stencil2d_entry());
    list.push_back(spmv_entry());
    list.push_back(batched_gemm_entry());
    return list;
  }();
  return entries;
}

const entry* find(const std::string& name) {
  for (const entry& e : all()) {
    if (e.name == name) return &e;
  }
  return nullptr;
}

std::vector<std::string> names() {
  std::vector<std::string> out;
  out.reserve(all().size());
  for (const entry& e : all()) out.push_back(e.name);
  return out;
}

std::unique_ptr<atf::search_technique> make_technique(const std::string& name,
                                                      std::uint64_t seed) {
  if (name == "exhaustive") return std::make_unique<atf::exhaustive>();
  if (name == "annealing") {
    return std::make_unique<atf::search::simulated_annealing>(4.0, seed);
  }
  if (name == "opentuner") {
    return std::make_unique<atf::search::opentuner_search>(seed);
  }
  if (name == "surrogate") {
    return std::make_unique<atf::search::surrogate_search>(seed);
  }
  if (name == "random") {
    return std::make_unique<atf::search::random_search>(seed);
  }
  throw std::invalid_argument(
      "unknown search technique '" + name +
      "' (expected exhaustive|annealing|opentuner|surrogate|random)");
}

tune_outcome tune(const entry& e, const input_size& size,
                  const ocls::device& dev, const tune_settings& settings) {
  atf::tuner t;
  t.tuning_parameters(e.make_groups(size, dev.profile()));
  t.search_technique(make_technique(settings.technique, settings.seed));
  if (settings.evaluations > 0) {
    t.abort_condition(atf::cond::evaluations(settings.evaluations));
  }
  t.cache_evaluations(true);
  if (!settings.journal.empty()) {
    t.session(settings.journal);
  }

  auto cost = e.make_cost(size, dev);
  auto result = t.tune(cost);

  tune_outcome out;
  out.evaluations = result.evaluations;
  out.failed_evaluations = result.failed_evaluations;
  out.space_size = result.search_space_size;
  if (result.has_best()) {
    out.best = result.best_configuration();
    out.best_ns = *result.best_cost;
  }
  return out;
}

}  // namespace atf::kernels::registry
