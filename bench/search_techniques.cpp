// Comparison of ATF's three pre-implemented search techniques (Section IV)
// — exhaustive, simulated annealing, OpenTuner-style ensemble — plus random
// search as a floor, on the two paper workloads:
//
//   * saxpy (small space; exhaustive is feasible and provably optimal), and
//   * XgemmDirect at IS4 (space ~7e6; exhaustive infeasible within budget,
//     the paper's motivation for annealing/OpenTuner techniques).
//
// Also demonstrates the six abort conditions of Section II Step 3.
#include <chrono>
#include <cstdio>
#include <memory>

#include "atf/kernels/saxpy.hpp"
#include "atf/search/opentuner_search.hpp"
#include "atf/search/random_search.hpp"
#include "bench_common.hpp"

using namespace bench;
using namespace std::chrono_literals;

namespace {

void saxpy_comparison() {
  const std::size_t n = std::size_t{1} << 22;
  const ocls::device gpu = ocls::find_device("NVIDIA", "K20m");
  const ocls::kernel kernel = atf::kernels::saxpy::make_kernel();
  auto ctx = std::make_shared<ocls::context>(gpu);

  auto cost = [&](const atf::configuration& config) {
    const std::size_t wpt = config["WPT"];
    const std::size_t ls = config["LS"];
    ocls::define_map defines;
    defines.set("WPT", static_cast<std::uint64_t>(wpt));
    ocls::command_queue queue(ctx);
    ocls::kernel_args args;
    args.emplace_back(static_cast<double>(n));
    args.emplace_back(1.5);
    static auto x = std::make_shared<ocls::buffer<float>>(std::size_t{1});
    static auto y = std::make_shared<ocls::buffer<float>>(std::size_t{1});
    args.emplace_back(x);
    args.emplace_back(y);
    try {
      return queue
          .launch(kernel, atf::kernels::saxpy::launch_range(n, wpt, ls), args,
                  defines)
          .profile_ns();
    } catch (const ocls::error& error) {
      throw atf::evaluation_error(error.what());
    }
  };

  std::printf("--- saxpy, N=2^22 on %s ---\n", gpu.name().c_str());
  std::printf("%-22s | %12s | %12s | %10s\n", "technique", "evaluations",
              "best [us]", "wall [ms]");
  print_rule(68);

  auto report = [&](const char* name,
                    std::unique_ptr<atf::search_technique> technique,
                    atf::abort_condition abort) {
    auto setup = atf::kernels::saxpy::make_tuning_parameters(n);
    atf::tuner tuner;
    tuner.tuning_parameters(setup.wpt, setup.ls);
    if (technique) {
      tuner.search_technique(std::move(technique));
    }
    tuner.abort_condition(std::move(abort));
    auto result = tuner.tune(cost);
    std::printf("%-22s | %12llu | %12.3f | %10.1f\n", name,
                static_cast<unsigned long long>(result.evaluations),
                *result.best_cost / 1e3,
                std::chrono::duration<double, std::milli>(result.elapsed)
                    .count());
  };

  report("exhaustive (default)", nullptr, atf::abort_condition{});
  report("simulated annealing",
         std::make_unique<atf::search::simulated_annealing>(4.0, 7),
         atf::cond::evaluations(2'000));
  report("opentuner ensemble",
         std::make_unique<atf::search::opentuner_search>(7),
         atf::cond::evaluations(2'000));
  report("random",
         std::make_unique<atf::search::random_search>(7),
         atf::cond::evaluations(2'000));
  std::printf("\n");
}

void gemm_comparison() {
  const xg::problem prob = xg::caffe_input_size(4);
  const ocls::device gpu = ocls::find_device("NVIDIA", "K20m");

  auto cost = [&](const atf::configuration& config) {
    const double ns =
        measure(prob, xg::params_from(config), gpu, xg::size_mode::general);
    if (!std::isfinite(ns)) {
      throw atf::evaluation_error("launch failed");
    }
    return ns;
  };

  auto setup = xg::make_tuning_parameters(prob, xg::size_mode::general,
                                          xg::device_limits::of(gpu.profile()));
  atf::tuner tuner;
  tuner.tuning_parameters(setup.group());
  const auto& space = tuner.space();

  std::printf("--- XgemmDirect IS4 on %s (space: %llu configurations) ---\n",
              gpu.name().c_str(),
              static_cast<unsigned long long>(space.size()));
  std::printf("%-22s | %12s | %12s | %10s\n", "technique", "evaluations",
              "best [us]", "wall [ms]");
  print_rule(68);

  auto report = [&](const char* name,
                    std::unique_ptr<atf::search_technique> technique,
                    std::uint64_t budget) {
    tuner.search_technique(std::move(technique));
    tuner.abort_condition(atf::cond::evaluations(budget));
    auto result = tuner.tune(cost);
    std::printf("%-22s | %12llu | %12.3f | %10.1f\n", name,
                static_cast<unsigned long long>(result.evaluations),
                *result.best_cost / 1e3,
                std::chrono::duration<double, std::milli>(result.elapsed)
                    .count());
  };

  for (const std::uint64_t budget : {2'000ull, 20'000ull}) {
    std::printf("(budget: %llu evaluations)\n",
                static_cast<unsigned long long>(budget));
    report("simulated annealing",
           std::make_unique<atf::search::simulated_annealing>(4.0, 11),
           budget);
    report("opentuner ensemble",
           std::make_unique<atf::search::opentuner_search>(11), budget);
    report("random", std::make_unique<atf::search::random_search>(11),
           budget);
  }
  std::printf("\n");
}

void abort_conditions_demo() {
  std::printf("--- abort conditions (Section II Step 3) ---\n");
  auto make = [] {
    auto x = atf::tp("x", atf::interval<int>(1, 100'000));
    atf::tuner t;
    t.tuning_parameters(x);
    return t;
  };
  auto cost = [](const atf::configuration& config) {
    return 1.0 + 1.0 / static_cast<double>(static_cast<int>(config["x"]));
  };
  struct row {
    const char* name;
    atf::abort_condition cond;
  };
  row rows[] = {
      {"duration(50ms)", atf::cond::duration(50ms)},
      {"evaluations(500)", atf::cond::evaluations(500)},
      {"fraction(0.02)", atf::cond::fraction(0.02)},
      {"cost(1.001)", atf::cond::cost(1.001)},
      {"speedup(1.05, 300 evals)", atf::cond::speedup(1.05, 300)},
      {"evals(2000) || cost(1.5)",
       atf::cond::evaluations(2000) || atf::cond::cost(1.5)},
  };
  for (auto& r : rows) {
    auto t = make();
    t.abort_condition(r.cond);
    auto result = t.tune(cost);
    std::printf("  %-26s -> stopped after %llu evaluations, best %.6f\n",
                r.name,
                static_cast<unsigned long long>(result.evaluations),
                *result.best_cost);
  }
}

}  // namespace

int main() {
  std::printf("=== Search techniques (Section IV) ===\n\n");
  saxpy_comparison();
  gemm_comparison();
  abort_conditions_demo();
  return 0;
}
