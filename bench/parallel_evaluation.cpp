// Batched, parallel cost evaluation: the evaluation engine's throughput
// lever for pure cost functions.
//
// Tunes XgemmDirect on the simulated device under a fixed seed and a fixed
// evaluation budget, comparing sequential evaluation against batched
// evaluation at 1/2/4/8 workers — first with random search (natively
// batchable: every mode explores the identical proposal stream and finds
// the identical best; only wall-clock throughput differs), then with the
// AUC-bandit ensemble (opentuner_search), whose mixed-technique batches
// fill one slot per member so the inherently sequential pool members also
// amortize measurement latency. For the ensemble, batched-at-1-worker is
// bit-identical to sequential; wider batches explore a different (equally
// deterministic) proposal stream, so only the wall-clock is compared.
// Unlike bench::measure, the evaluation session here is thread_local: each
// worker owns its context and argument buffers, keeping the cost function
// safe to invoke concurrently.
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <string>
#include <thread>

#include "atf/atf.hpp"
#include "atf/cf/generic.hpp"
#include "atf/common/stopwatch.hpp"
#include "atf/kernels/xgemm_direct.hpp"
#include "atf/search/opentuner_search.hpp"
#include "atf/search/random_search.hpp"
#include "bench_common.hpp"

namespace {

namespace xg = atf::kernels::xgemm;

/// Modeled kernel time of one configuration, with a per-thread session —
/// context and buffers are built once per worker and reused.
double measure_thread_local(const xg::problem& prob, const xg::params& p,
                            const ocls::device& dev, xg::size_mode mode) {
  static const ocls::kernel kernel = xg::make_kernel();

  struct session {
    std::shared_ptr<ocls::context> ctx;
    ocls::kernel_args args;
  };
  thread_local session cache;
  if (!cache.ctx) {
    cache.ctx = std::make_shared<ocls::context>(dev);
    cache.args.emplace_back(static_cast<double>(prob.m));
    cache.args.emplace_back(static_cast<double>(prob.n));
    cache.args.emplace_back(static_cast<double>(prob.k));
    cache.args.emplace_back(
        std::make_shared<ocls::buffer<float>>(prob.m * prob.k));
    cache.args.emplace_back(
        std::make_shared<ocls::buffer<float>>(prob.k * prob.n));
    cache.args.emplace_back(
        std::make_shared<ocls::buffer<float>>(prob.m * prob.n));
  }

  ocls::command_queue queue(cache.ctx);
  try {
    return queue
        .launch(kernel, xg::launch_range(prob, p, mode), cache.args,
                xg::make_defines(prob, p))
        .profile_ns();
  } catch (const ocls::error&) {
    return std::numeric_limits<double>::infinity();
  }
}

struct run_stats {
  double seconds = 0.0;
  double best_ns = 0.0;
  std::uint64_t evaluations = 0;
};

enum class technique { random, ensemble };

std::unique_ptr<atf::search_technique> make_technique(technique kind) {
  if (kind == technique::ensemble) {
    return std::make_unique<atf::search::opentuner_search>(0x5eed);
  }
  return std::make_unique<atf::search::random_search>(0x5eed);
}

run_stats run(const xg::problem& prob, const ocls::device& dev,
              std::uint64_t budget, atf::evaluation_mode mode,
              std::size_t workers, technique kind) {
  auto setup = xg::make_tuning_parameters(
      prob, xg::size_mode::general, xg::device_limits::of(dev.profile()));
  atf::tuner tuner;
  tuner.tuning_parameters(setup.group());
  tuner.search_technique(make_technique(kind));
  tuner.abort_condition(atf::cond::evaluations(budget));
  tuner.evaluation(mode).concurrency(workers);

  auto cf = atf::cf::pure([&](const atf::configuration& config) {
    const double ns = measure_thread_local(
        prob, xg::params_from(config), dev, xg::size_mode::general);
    if (!std::isfinite(ns)) {
      throw atf::evaluation_error("launch failed");
    }
    return ns;
  });

  atf::common::stopwatch timer;
  const auto result = tuner.tune(cf);
  run_stats stats;
  stats.seconds = timer.elapsed_seconds();
  stats.best_ns = result.has_best() ? *result.best_cost : 0.0;
  stats.evaluations = result.evaluations;
  return stats;
}

}  // namespace

int main() {
  std::printf("=== Batched parallel cost evaluation on XgemmDirect ===\n\n");
  std::printf("hardware concurrency: %u core(s) — batched speedups are "
              "bounded by this\n\n",
              std::thread::hardware_concurrency());

  const xg::problem prob{256, 256, 256};
  const auto dev = ocls::find_device("NVIDIA", "K20m");
  const std::uint64_t budget = 4'000;

  std::printf("--- random search (natively batchable) ---\n");
  const run_stats sequential = run(prob, dev, budget,
                                   atf::evaluation_mode::sequential, 0,
                                   technique::random);

  std::printf("%-12s | %8s | %10s | %12s | %9s | %12s\n", "mode", "workers",
              "evals", "time [s]", "speedup", "evals/s");
  bench::print_rule(76);
  std::printf("%-12s | %8s | %10llu | %12.3f | %8.2fx | %12.0f\n",
              "sequential", "-",
              static_cast<unsigned long long>(sequential.evaluations),
              sequential.seconds, 1.0,
              double(sequential.evaluations) / sequential.seconds);

  double best_ns = sequential.best_ns;
  bool ok = true;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    const run_stats batched = run(prob, dev, budget,
                                  atf::evaluation_mode::batched, workers,
                                  technique::random);
    ok = ok && batched.best_ns == best_ns &&
         batched.evaluations == sequential.evaluations;
    std::printf("%-12s | %8zu | %10llu | %12.3f | %8.2fx | %12.0f\n",
                "batched", workers,
                static_cast<unsigned long long>(batched.evaluations),
                batched.seconds, sequential.seconds / batched.seconds,
                double(batched.evaluations) / batched.seconds);
  }
  std::printf("\nbest modeled time: %.0f ns — %s across all modes\n", best_ns,
              ok ? "identical" : "DIFFERS (determinism bug!)");

  std::printf("\n--- AUC-bandit ensemble / opentuner_search "
              "(mixed-technique batches) ---\n");
  const run_stats ens_sequential = run(prob, dev, budget,
                                       atf::evaluation_mode::sequential, 0,
                                       technique::ensemble);
  std::printf("%-12s | %8s | %10s | %12s | %9s | %12s\n", "mode", "workers",
              "evals", "time [s]", "speedup", "evals/s");
  bench::print_rule(76);
  std::printf("%-12s | %8s | %10llu | %12.3f | %8.2fx | %12.0f\n",
              "sequential", "-",
              static_cast<unsigned long long>(ens_sequential.evaluations),
              ens_sequential.seconds, 1.0,
              double(ens_sequential.evaluations) / ens_sequential.seconds);

  double speedup_at_4 = 0.0;
  for (const std::size_t workers : {1u, 2u, 4u, 8u}) {
    const run_stats batched = run(prob, dev, budget,
                                  atf::evaluation_mode::batched, workers,
                                  technique::ensemble);
    if (workers == 1u) {
      // At concurrency 1 the mixed-batch fill degenerates to the
      // sequential bandit step: the runs must be bit-identical.
      ok = ok && batched.best_ns == ens_sequential.best_ns &&
           batched.evaluations == ens_sequential.evaluations;
    }
    if (workers == 4u) {
      speedup_at_4 = ens_sequential.seconds / batched.seconds;
    }
    std::printf("%-12s | %8zu | %10llu | %12.3f | %8.2fx | %12.0f\n",
                "batched", workers,
                static_cast<unsigned long long>(batched.evaluations),
                batched.seconds, ens_sequential.seconds / batched.seconds,
                double(batched.evaluations) / batched.seconds);
  }

  std::printf("\nensemble: batched@1 %s sequential; batched@4 speedup "
              "%.2fx\n",
              ok ? "bit-identical to" : "DIFFERS from (determinism bug!)",
              speedup_at_4);
  return ok ? 0 : 1;
}
