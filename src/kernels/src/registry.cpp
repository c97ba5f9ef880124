#include "atf/kernels/registry.hpp"

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
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

using dims = std::vector<std::uint64_t>;

/// Runs a family's kernel functionally, once, on the given args.
using launcher = std::function<void(const ocls::kernel_args&)>;

/// What a kernel family really owns: its listing and a few hooks. adapt()
/// derives the rest of its registry entry — knob count, space builder, cost
/// function, reference check — from them and from the family's knob table
/// (atf/kernels/knobs.hpp).
template <typename Problem, typename Params>
struct family {
  std::string name, description, dim_names;  ///< as in entry
  input_size default_size;
  std::string constraint_summary;

  /// The problem of a size with as many dimensions as dim_names spells out;
  /// throws std::invalid_argument for extents the family cannot run.
  Problem (*problem_of)(const dims&);
  std::vector<atf::tp_group> (*groups)(const Problem&,
                                       const ocls::device_profile&);
  ocls::kernel (*kernel)();
  ocls::nd_range (*launch_range)(const Problem&, const Params&);
  ocls::define_map (*make_defines)(const Problem&, const Params&);
  /// Builds the reference inputs, calls `launch` once with the kernel args
  /// and compares the output with the family's tolerance.
  bool (*reference)(const Problem&, const Params&, const launcher&);
};

template <typename Problem, typename Params>
entry adapt(const family<Problem, Params>& f) {
  entry e;
  e.name = f.name;
  e.description = f.description;
  e.dim_names = f.dim_names;
  e.default_size = f.default_size;
  e.knob_count = knob_names<Params>().size();
  e.constraint_summary = f.constraint_summary;
  // The one size check of the family: "HxWxR" names three dimensions.
  const auto problem_of = [f](const input_size& size) {
    const auto count = static_cast<std::size_t>(
        std::count(f.dim_names.begin(), f.dim_names.end(), 'x') + 1);
    if (size.dims.size() != count) {
      throw std::invalid_argument(
          "kernel '" + f.name + "' expects a size of the form " +
          f.dim_names + " (" + std::to_string(count) +
          " dimensions), got '" + size.to_string() + "'");
    }
    return f.problem_of(size.dims);
  };
  e.make_groups = [f, problem_of](const input_size& size,
                                  const ocls::device_profile& dev) {
    return f.groups(problem_of(size), dev);
  };
  e.make_cost = [f, problem_of](const input_size& size,
                                const ocls::device& dev) {
    const Problem prob = problem_of(size);
    auto queue = std::make_shared<ocls::command_queue>(
        std::make_shared<ocls::context>(dev));
    // The size-only defines (spmv's NNZ walks every row length) are made
    // once per cost function; each evaluation overwrites just the knobs.
    // Launches are model-only: the analytic models never touch buffers.
    return std::function<double(const atf::configuration&)>(
        [queue, k = f.kernel(), prob, launch_range = f.launch_range,
         base = f.make_defines(prob, Params{})](const atf::configuration& c) {
          const Params p = params_from<Params>(c);
          ocls::define_map defines = base;
          to_defines(p, defines);
          try {
            return queue->launch(k, launch_range(prob, p), {}, defines)
                .profile_ns();
          } catch (const ocls::error& e) {
            throw atf::evaluation_error(e.what());
          }
        });
  };
  e.reference_check = [f, problem_of](const input_size& size,
                                      const ocls::device& dev,
                                      const atf::configuration& c) {
    const Problem prob = problem_of(size);
    const Params p = params_from<Params>(c);
    return f.reference(prob, p, [&](const ocls::kernel_args& args) {
      auto ctx = std::make_shared<ocls::context>(dev);
      ctx->execute_functionally(true);
      ocls::command_queue queue(std::move(ctx));
      (void)queue.launch(f.kernel(), f.launch_range(prob, p), args,
                         f.make_defines(prob, p));
    });
  };
  return e;
}

using buffer = ocls::buffer<float>;

/// A device buffer holding a copy of `host`.
std::shared_ptr<buffer> device_copy(const std::vector<float>& host) {
  return std::make_shared<buffer>(host);
}

entry saxpy_entry() {
  return adapt<std::size_t, saxpy::params>(
      {.name = "saxpy",
       .description = "CLBlast-style saxpy (paper Listing 1)",
       .dim_names = "N",
       .default_size = {{65536}},
       .constraint_summary = "WPT | N; LS | N/WPT (one divides-chain)",
       .problem_of = [](const dims& d) -> std::size_t { return d[0]; },
       .groups =
           [](const std::size_t& n, const ocls::device_profile&) {
             return std::vector<atf::tp_group>{
                 saxpy::make_tuning_parameters(n).group()};
           },
       .kernel = saxpy::make_kernel,
       .launch_range =
           [](const std::size_t& n, const saxpy::params& p) {
             return saxpy::launch_range(n, p.wpt, p.ls);
           },
       .make_defines =
           [](const std::size_t& n, const saxpy::params& p) {
             return saxpy::make_defines(n, p);
           },
       .reference = [](const std::size_t& n, const saxpy::params&,
                       const launcher& launch) {
         const float a = 0.5f;
         std::vector<float> x(n), y(n);
         for (std::size_t i = 0; i < n; ++i) {
           x[i] = static_cast<float>(static_cast<int>((i * 3) % 7) - 3) *
                  0.25f;
           y[i] = static_cast<float>(static_cast<int>((i * 5) % 9) - 4) *
                  0.125f;
         }
         std::vector<float> expected = y;
         reference::saxpy(a, x, expected);
         auto yb = device_copy(y);
         launch({static_cast<double>(n), a, ocls::arg(device_copy(x)),
                 ocls::arg(yb)});
         return reference::matches(yb->host(), expected, 1e-4f);
       }});
}

entry reduce_entry() {
  return adapt<std::size_t, reduce::params>(
      {.name = "reduce",
       .description = "grid-stride sum reduction with tree phase",
       .dim_names = "N",
       .default_size = {{65536}},
       .constraint_summary = "LS pow2 <= device limit; UNROLL | WPT",
       .problem_of = [](const dims& d) -> std::size_t { return d[0]; },
       .groups =
           [](const std::size_t& n, const ocls::device_profile& dev) {
             return std::vector<atf::tp_group>{
                 reduce::make_tuning_parameters(n, dev.max_work_group_size)
                     .group()};
           },
       .kernel = reduce::make_kernel,
       .launch_range =
           [](const std::size_t& n, const reduce::params& p) {
             return reduce::launch_range(n, p);
           },
       .make_defines =
           [](const std::size_t& n, const reduce::params& p) {
             return reduce::make_defines(n, p);
           },
       .reference = [](const std::size_t& n, const reduce::params& p,
                       const launcher& launch) {
         std::vector<float> in(n);
         double want = 0.0;
         for (std::size_t i = 0; i < n; ++i) {
           in[i] = static_cast<float>(static_cast<int>((i * 7) % 5) - 2);
           want += in[i];
         }
         auto partials = std::make_shared<buffer>(reduce::num_groups(n, p));
         launch({static_cast<double>(n), ocls::arg(device_copy(in)),
                 ocls::arg(partials)});
         double got = 0.0;
         for (const float v : partials->host()) got += v;
         return std::abs(got - want) <= 1e-3;  // false for NaN, as matches()
       }});
}

entry xgemm_entry() {
  return adapt<xgemm::problem, xgemm::params>(
      {.name = "xgemm",
       .description = "CLBlast XgemmDirect (paper Section VI)",
       .dim_names = "MxNxK",
       .default_size = {{64, 64, 64}},
       .constraint_summary =
           "17-constraint divisibility web over WGD/MDIM*/NDIM*/VW*/KWID",
       .problem_of =
           [](const dims& d) { return xgemm::problem{d[0], d[1], d[2]}; },
       .groups =
           [](const xgemm::problem& prob, const ocls::device_profile& dev) {
             return std::vector<atf::tp_group>{
                 xgemm::make_tuning_parameters(prob, xgemm::size_mode::general,
                                               xgemm::device_limits::of(dev))
                     .group()};
           },
       .kernel = xgemm::make_kernel,
       .launch_range =
           [](const xgemm::problem& prob, const xgemm::params& p) {
             return xgemm::launch_range(prob, p, xgemm::size_mode::general);
           },
       .make_defines = xgemm::make_defines,
       .reference = [](const xgemm::problem& prob, const xgemm::params&,
                       const launcher& launch) {
         std::vector<float> a(prob.m * prob.k), b(prob.k * prob.n);
         for (std::size_t i = 0; i < a.size(); ++i) {
           a[i] = static_cast<float>(static_cast<int>((i * 7 + 3) % 9) - 4) *
                  0.25f;
         }
         for (std::size_t i = 0; i < b.size(); ++i) {
           b[i] = static_cast<float>(static_cast<int>((i * 5 + 1) % 11) - 5) *
                  0.125f;
         }
         std::vector<float> expected(prob.m * prob.n, 0.0f);
         reference::gemm(prob.m, prob.n, prob.k, a, b, expected);
         auto cb = std::make_shared<buffer>(expected.size());
         launch({static_cast<double>(prob.m), static_cast<double>(prob.n),
                 static_cast<double>(prob.k), ocls::arg(device_copy(a)),
                 ocls::arg(device_copy(b)), ocls::arg(cb)});
         return reference::matches(cb->host(), expected, 1e-3f);
       }});
}

entry conv2d_entry() {
  return adapt<conv2d::problem, conv2d::params>(
      {.name = "conv2d",
       .description = "direct 2D convolution (valid padding)",
       .dim_names = "HxWxRxS",
       .default_size = {{64, 64, 5, 5}},
       .constraint_summary =
           "LX | TBX, LY | TBY, VECX | TBX/LX; staged tile lmem bound",
       .problem_of =
           [](const dims& d) {
             if (d[2] > d[0] || d[3] > d[1]) {
               throw std::invalid_argument(
                   "conv2d: the filter must not exceed the input");
             }
             return conv2d::problem{d[0], d[1], d[2], d[3]};
           },
       .groups =
           [](const conv2d::problem& prob, const ocls::device_profile& dev) {
             return conv2d::make_tuning_parameters(
                        prob, dev.max_work_group_size, dev.local_mem_bytes)
                 .groups();
           },
       .kernel = conv2d::make_kernel,
       .launch_range = conv2d::launch_range,
       .make_defines = conv2d::make_defines,
       .reference = [](const conv2d::problem& prob, const conv2d::params&,
                       const launcher& launch) {
         std::vector<float> in(prob.height * prob.width);
         std::vector<float> flt(prob.filter_height * prob.filter_width);
         for (std::size_t i = 0; i < in.size(); ++i) {
           in[i] = static_cast<float>((i * 3) % 7) - 3.0f;
         }
         for (std::size_t i = 0; i < flt.size(); ++i) {
           flt[i] = static_cast<float>(i % 4) * 0.5f - 0.75f;
         }
         std::vector<float> expected(prob.out_height() * prob.out_width());
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
         auto outb = std::make_shared<buffer>(expected.size());
         launch({static_cast<double>(prob.height),
                 static_cast<double>(prob.width),
                 static_cast<double>(prob.filter_height),
                 static_cast<double>(prob.filter_width),
                 ocls::arg(device_copy(in)), ocls::arg(device_copy(flt)),
                 ocls::arg(outb)});
         return reference::matches(outb->host(), expected, 1e-3f);
       }});
}

entry stencil2d_entry() {
  return adapt<stencil2d::problem, stencil2d::params>(
      {.name = "stencil2d",
       .description = "2D star stencil, radius R (bandwidth-bound)",
       .dim_names = "HxWxR",
       .default_size = {{66, 66, 1}},
       .constraint_summary =
           "LX | TX, VEC | TX/LX, LY | TY; haloed tile lmem bound",
       .problem_of =
           [](const dims& d) {
             if (d[0] <= 2 * d[2] || d[1] <= 2 * d[2]) {
               throw std::invalid_argument(
                   "stencil2d: the grid must exceed twice the radius");
             }
             return stencil2d::problem{d[0], d[1], d[2]};
           },
       .groups =
           [](const stencil2d::problem& prob,
              const ocls::device_profile& dev) {
             return stencil2d::make_tuning_parameters(
                        prob, dev.max_work_group_size, dev.local_mem_bytes)
                 .groups();
           },
       .kernel = stencil2d::make_kernel,
       .launch_range = stencil2d::launch_range,
       .make_defines = stencil2d::make_defines,
       .reference = [](const stencil2d::problem& prob,
                       const stencil2d::params&, const launcher& launch) {
         const std::vector<float> in = stencil2d::make_input(prob);
         auto outb = std::make_shared<buffer>(in.size());
         launch({static_cast<double>(prob.height),
                 static_cast<double>(prob.width),
                 static_cast<double>(prob.radius), ocls::arg(device_copy(in)),
                 ocls::arg(outb)});
         return reference::matches(outb->host(),
                                   stencil2d::reference_stencil(prob, in),
                                   1e-6f);
       }});
}

entry spmv_entry() {
  return adapt<spmv::problem, spmv::params>(
      {.name = "spmv",
       .description = "CSR SpMV on a skewed synthetic matrix (irregular)",
       .dim_names = "ROWSxNNZ",
       .default_size = {{2048, 16}},
       .constraint_summary =
           "VW <= simd width, VW | WG, WG <= device limit (occupancy pincer)",
       .problem_of =
           [](const dims& d) { return spmv::problem{d[0], d[1], 0.5}; },
       .groups =
           [](const spmv::problem& prob, const ocls::device_profile& dev) {
             return spmv::make_tuning_parameters(prob, dev).groups();
           },
       .kernel = spmv::make_kernel,
       .launch_range = spmv::launch_range,
       .make_defines = spmv::make_defines,
       .reference = [](const spmv::problem& prob, const spmv::params&,
                       const launcher& launch) {
         const spmv::csr_matrix m = spmv::make_matrix(prob);
         auto yb = std::make_shared<buffer>(prob.rows);
         launch({static_cast<double>(prob.rows),
                 ocls::arg(std::make_shared<ocls::buffer<std::uint32_t>>(
                     m.row_ptr)),
                 ocls::arg(
                     std::make_shared<ocls::buffer<std::uint32_t>>(m.cols)),
                 ocls::arg(device_copy(m.vals)), ocls::arg(device_copy(m.x)),
                 ocls::arg(yb)});
         return reference::matches(yb->host(), spmv::reference_spmv(m),
                                   1e-6f);
       }});
}

entry batched_gemm_entry() {
  return adapt<batched_gemm::problem, batched_gemm::params>(
      {.name = "batched_gemm",
       .description = "many small GEMMs packed into work-groups (occupancy)",
       .dim_names = "BxMxNxK",
       .default_size = {{256, 16, 16, 16}},
       .constraint_summary =
           "TM | M, TN | N, VECN | TN, KU | K; (M/TM)(N/TN)*BPW <= WG limit",
       .problem_of =
           [](const dims& d) {
             return batched_gemm::problem{d[0], d[1], d[2], d[3]};
           },
       .groups =
           [](const batched_gemm::problem& prob,
              const ocls::device_profile& dev) {
             return batched_gemm::make_tuning_parameters(prob, dev).groups();
           },
       .kernel = batched_gemm::make_kernel,
       .launch_range = batched_gemm::launch_range,
       .make_defines = batched_gemm::make_defines,
       .reference = [](const batched_gemm::problem& prob,
                       const batched_gemm::params&, const launcher& launch) {
         const std::vector<float> a = batched_gemm::make_a(prob);
         const std::vector<float> b = batched_gemm::make_b(prob);
         const std::vector<float> expected =
             batched_gemm::reference_gemm(prob, a, b);
         auto cb = std::make_shared<buffer>(expected.size());
         launch({static_cast<double>(prob.batch), static_cast<double>(prob.m),
                 static_cast<double>(prob.n), static_cast<double>(prob.k),
                 ocls::arg(device_copy(a)), ocls::arg(device_copy(b)),
                 ocls::arg(cb)});
         return reference::matches(cb->host(), expected, 1e-6f);
       }});
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
