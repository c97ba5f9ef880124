#include "blasmini/gemm.hpp"

#include <stdexcept>

#include "atf/kernels/registry.hpp"
#include "atf/session/cost_codec.hpp"
#include "atf/session/session.hpp"

namespace blasmini {

namespace xg = atf::kernels::xgemm;

namespace {

/// Appends the defaults' measurement to the journal at `path` unless an
/// earlier run already journaled that configuration.
void journal_defaults(const std::string& path, double time_ns) {
  auto record = atf::session::tuning_record::from_configuration(
      atf::kernels::to_configuration(xg::params::defaults()));
  const auto session = atf::session::tuning_session::open(path);
  if (session->store().contains(record.config_hash)) {
    return;
  }
  record.technique = defaults_technique;
  record.scalar = time_ns;
  record.cost = atf::session::cost_codec<double>::encode(time_ns);
  session->append(std::move(record));
}

}  // namespace

gemm_executor::gemm_executor(ocls::device dev) : device_(std::move(dev)) {}

std::string gemm_executor::problem_signature(std::size_t m, std::size_t n,
                                             std::size_t k) {
  return std::to_string(m) + "x" + std::to_string(n) + "x" +
         std::to_string(k);
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

  // A tuned library must never regress below its shipped defaults: if the
  // search budget was too small to beat them, keep the defaults (the same
  // guard CLBlast applies when adopting tuner output).
  const xg::params defaults = xg::params::defaults();
  if (xg::valid({m, n, k}, defaults, xg::size_mode::general,
                xg::device_limits::of(device_.profile()))) {
    const double defaults_ns = modeled_time_ns(m, n, k, defaults);
    if (defaults_ns < outcome.best_ns) {
      if (!opts.journal.empty()) {
        journal_defaults(opts.journal, defaults_ns);
      }
      return defaults;
    }
  }
  return atf::kernels::params_from<xg::params>(outcome.best);
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
