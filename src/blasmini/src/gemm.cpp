#include "blasmini/gemm.hpp"

#include <stdexcept>
#include <type_traits>

#include "atf/kernels/registry.hpp"

namespace blasmini {

namespace xg = atf::kernels::xgemm;

xg::params params_from_record(const record& config) {
  ocls::define_map defines;
  for (const auto& [name, value] : config) {
    defines.set(name, value);
  }
  xg::params p;  // the defaults; each parameter overridden independently
  xg::visit_knobs(p, [&](const char* name, auto& field) {
    try {
      if (!defines.contains(name)) {
        return;
      }
      if constexpr (std::is_same_v<std::remove_reference_t<decltype(field)>,
                                   bool>) {
        field = defines.get_bool(name);
      } else {
        field = defines.get_uint(name);
      }
    } catch (const ocls::error&) {
      // unparsable value: keep the default
    }
  });
  return p;
}

gemm_executor::gemm_executor(ocls::device dev, tuning_db* db)
    : device_(std::move(dev)), db_(db) {}

std::string gemm_executor::problem_signature(std::size_t m, std::size_t n,
                                             std::size_t k) {
  return std::to_string(m) + "x" + std::to_string(n) + "x" +
         std::to_string(k);
}

xg::params gemm_executor::params_for(std::size_t m, std::size_t n,
                                     std::size_t k) const {
  if (db_ != nullptr) {
    const auto hit = db_->lookup(device_.name(), "XgemmDirect",
                                 problem_signature(m, n, k));
    if (hit.has_value()) {
      return params_from_record(*hit);
    }
  }
  return xg::params::defaults();
}

xg::params gemm_executor::tune(std::size_t m, std::size_t n, std::size_t k,
                               std::uint64_t evaluations,
                               std::uint64_t seed) {
  tune_options opts;
  opts.evaluations = evaluations;
  opts.seed = seed;
  return tune(m, n, k, opts);
}

xg::params gemm_executor::tune(std::size_t m, std::size_t n, std::size_t k,
                               const tune_options& opts) {
  namespace reg = atf::kernels::registry;
  if (opts.evaluations == 0) {
    // registry::tune reads a zero budget as "sweep the whole space".
    throw std::invalid_argument("gemm_executor::tune: evaluations must be > 0");
  }
  reg::entry xgemm = *reg::find("xgemm");
  if (opts.on_measure) {
    xgemm.make_cost = [on_measure = opts.on_measure, make = xgemm.make_cost](
                          const reg::input_size& size,
                          const ocls::device& dev) {
      return [on_measure, cost = make(size, dev)](
                 const atf::configuration& config) {
        on_measure();
        return cost(config);
      };
    };
  }
  const reg::tune_outcome outcome =
      reg::tune(xgemm, {{m, n, k}}, device_,
                {opts.technique, opts.evaluations, opts.seed, opts.journal});
  if (outcome.best.empty()) {
    throw std::runtime_error("gemm_executor::tune: no valid configuration");
  }

  const xg::problem prob{m, n, k};
  xg::params p = xg::params_from(outcome.best);
  // A tuned library must never regress below its shipped defaults: if the
  // search budget was too small to beat them, keep the defaults (the same
  // guard CLBlast applies when adopting tuner output).
  if (xg::valid(prob, xg::params::defaults(), xg::size_mode::general,
                xg::device_limits::of(device_.profile())) &&
      modeled_time_ns(m, n, k, xg::params::defaults()) < outcome.best_ns) {
    p = xg::params::defaults();
  }
  if (db_ != nullptr) {
    ocls::define_map defines;
    p.to_defines(defines);
    record config;
    for (const auto& [name, value] : defines.all()) {
      config[name] = value;
    }
    db_->store(device_.name(), "XgemmDirect", problem_signature(m, n, k),
               std::move(config));
  }
  return p;
}

double gemm_executor::modeled_time_ns(std::size_t m, std::size_t n,
                                      std::size_t k,
                                      const xg::params& p) const {
  const xg::problem prob{m, n, k};
  auto ctx = std::make_shared<ocls::context>(device_);
  ocls::command_queue queue(ctx);
  return queue
      .launch(xg::make_kernel(),
              xg::launch_range(prob, p, xg::size_mode::general), {},
              xg::make_defines(prob, p))
      .profile_ns();
}

double gemm_executor::run(std::size_t m, std::size_t n, std::size_t k,
                          std::span<const float> a, std::span<const float> b,
                          std::span<float> c) const {
  return run_with(params_for(m, n, k), m, n, k, a, b, c);
}

double gemm_executor::run_with(const xg::params& p, std::size_t m,
                               std::size_t n, std::size_t k,
                               std::span<const float> a,
                               std::span<const float> b,
                               std::span<float> c) const {
  const xg::problem prob{m, n, k};

  auto ctx = std::make_shared<ocls::context>(device_);
  ctx->execute_functionally(true);
  ocls::command_queue queue(ctx);

  auto a_buf = std::make_shared<ocls::buffer<float>>(
      std::vector<float>(a.begin(), a.end()));
  auto b_buf = std::make_shared<ocls::buffer<float>>(
      std::vector<float>(b.begin(), b.end()));
  auto c_buf = std::make_shared<ocls::buffer<float>>(m * n);

  ocls::kernel_args args{ocls::arg(static_cast<double>(m)),
                         ocls::arg(static_cast<double>(n)),
                         ocls::arg(static_cast<double>(k)),
                         ocls::arg(a_buf), ocls::arg(b_buf),
                         ocls::arg(c_buf)};
  const auto event =
      queue.launch(xg::make_kernel(),
                   xg::launch_range(prob, p, xg::size_mode::general), args,
                   xg::make_defines(prob, p));
  const auto host = c_buf->host();
  std::copy(host.begin(), host.end(), c.begin());
  return event.profile_ns();
}

}  // namespace blasmini
