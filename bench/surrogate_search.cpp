// Surrogate-guided search vs the random and ensemble baselines (DESIGN.md
// §10): measured-evaluations-to-reach-best on the two paper workloads,
// XgemmDirect (IS4) and conv2d, on the simulated K20m.
//
// Protocol, per workload: random search burns a fixed budget R and sets the
// bar B_r (its final best). Each challenger then runs with the abort
// condition cost(B_r) || evaluations(R) — stop as soon as the bar is
// reached — under an evaluation cache, and is scored by *measured*
// evaluations: evaluations minus cache hits minus store hits. The
// acceptance gate requires the surrogate to reach the bar on XgemmDirect
// with >= 30% fewer measured evaluations than random spent, and a
// fixed-seed rerun to reproduce the exact measured-cost stream
// (bit-identity). Exit code 0 iff both hold.
//
// --small: a thread-sanitizer workout, not a comparison — batched
// evaluation with several workers on a tiny budget, exercising the
// propose_batch/report_batch path concurrently.
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "atf/kernels/conv2d.hpp"
#include "atf/search/surrogate_search.hpp"
#include "bench_common.hpp"

using namespace bench;

namespace {

constexpr std::uint64_t kSeed = 4242;

struct run_outcome {
  double best = 0.0;
  std::uint64_t measured = 0;
  std::vector<double> stream;  ///< measured costs in evaluation order
  std::string work;            ///< surrogate work line (surrogate runs only)
};

/// Where a surrogate run's own time goes: forests built (against refits
/// scheduled), fit cost per training sample, candidates scored by the
/// model, the forest steps scoring took and the sibling steps decoding the
/// pools took (both deterministic), and configurations materialized to
/// propose.
std::string surrogate_work(const atf::search::surrogate_search& technique) {
  const atf::search::surrogate_trainer& trainer = technique.trainer();
  const double us_per_sample =
      trainer.fit_samples() == 0
          ? 0.0
          : trainer.fit_seconds() * 1e6 /
                static_cast<double>(trainer.fit_samples());
  char line[384];
  std::snprintf(line, sizeof line,
                "surrogate work: %llu fits built (%llu refits scheduled), "
                "%.2f us per fit sample, %llu candidates scored, %llu tree "
                "steps, %llu decode sibling steps, %llu configurations "
                "materialized\n",
                static_cast<unsigned long long>(trainer.fits()),
                static_cast<unsigned long long>(trainer.refits()),
                us_per_sample,
                static_cast<unsigned long long>(technique.scored()),
                static_cast<unsigned long long>(technique.tree_steps()),
                static_cast<unsigned long long>(
                    technique.decode_sibling_steps()),
                static_cast<unsigned long long>(technique.materialized()));
  return line;
}

std::uint64_t measured_of(std::uint64_t evaluations, std::uint64_t cached,
                          std::uint64_t store_hits) {
  return evaluations - cached - store_hits;
}

/// One tuning run under an evaluation cache, recording the measured-cost
/// stream for the bit-identity check.
template <typename MakeTuner, typename Cost>
run_outcome run_technique(MakeTuner&& make_tuner, Cost&& cost,
                          std::unique_ptr<atf::search_technique> technique,
                          atf::abort_condition abort) {
  const auto* surrogate =
      dynamic_cast<const atf::search::surrogate_search*>(technique.get());
  atf::tuner tuner = make_tuner();
  tuner.cache_evaluations(true);
  tuner.search_technique(std::move(technique));
  tuner.abort_condition(std::move(abort));
  run_outcome out;
  const auto result = tuner.tune([&](const atf::configuration& config) {
    const double c = cost(config);
    out.stream.push_back(c);
    return c;
  });
  out.best = result.has_best() ? *result.best_cost
                               : std::numeric_limits<double>::infinity();
  out.measured = measured_of(result.evaluations, result.cached_evaluations,
                             result.store_hits);
  if (surrogate != nullptr) {
    out.work = surrogate_work(*surrogate);
  }
  return out;
}

template <typename MakeTuner, typename Cost>
bool compare_on(const char* workload, MakeTuner&& make_tuner, Cost&& cost,
                std::uint64_t budget, bool gated) {
  std::printf("--- %s (budget: %llu evaluations, seed %llu) ---\n", workload,
              static_cast<unsigned long long>(budget),
              static_cast<unsigned long long>(kSeed));

  // The bar: random search's final best after the full budget.
  const run_outcome random = run_technique(
      make_tuner, cost, std::make_unique<atf::search::random_search>(kSeed),
      atf::cond::evaluations(budget));
  const auto to_bar = atf::cond::cost(random.best) ||
                      atf::cond::evaluations(budget);

  const run_outcome ensemble = run_technique(
      make_tuner, cost,
      std::make_unique<atf::search::opentuner_search>(kSeed), to_bar);
  const run_outcome surrogate = run_technique(
      make_tuner, cost, std::make_unique<atf::search::surrogate_search>(kSeed),
      to_bar);

  std::printf("%-22s | %14s | %18s\n", "technique", "best [us]",
              "measured evals");
  print_rule(62);
  auto row = [&](const char* name, const run_outcome& out) {
    std::printf("%-22s | %14.3f | %18llu\n", name, out.best / 1e3,
                static_cast<unsigned long long>(out.measured));
  };
  row("random (sets the bar)", random);
  row("opentuner ensemble", ensemble);
  row("surrogate", surrogate);

  const bool reached = surrogate.best <= random.best;
  const double ratio = random.measured == 0
                           ? 1.0
                           : static_cast<double>(surrogate.measured) /
                                 static_cast<double>(random.measured);
  std::printf("surrogate reached the bar: %s, measured ratio vs random: "
              "%.2f (gate: <= 0.70)\n",
              reached ? "yes" : "NO", ratio);
  std::printf("%s", surrogate.work.c_str());

  // Bit-identity: the same seed must reproduce the exact measured-cost
  // stream, not merely the same final best.
  const run_outcome rerun = run_technique(
      make_tuner, cost, std::make_unique<atf::search::surrogate_search>(kSeed),
      to_bar);
  const bool identical = rerun.stream == surrogate.stream;
  std::printf("fixed-seed rerun bit-identical: %s\n\n",
              identical ? "yes" : "NO");

  if (!identical) {
    return false;
  }
  if (!gated) {
    return true;
  }
  return reached && ratio <= 0.70;
}

bool xgemm_comparison() {
  const xg::problem prob = xg::caffe_input_size(4);
  const ocls::device gpu = ocls::find_device("NVIDIA", "K20m");
  auto make_tuner = [&] {
    auto setup = xg::make_tuning_parameters(
        prob, xg::size_mode::general, xg::device_limits::of(gpu.profile()));
    atf::tuner tuner;
    tuner.tuning_parameters(setup.group());
    return tuner;
  };
  auto cost = [&](const atf::configuration& config) {
    // Failed launches surface as the +infinity penalty and train the
    // surrogate's invalid classifier head.
    return measure(prob, atf::kernels::params_from<xg::params>(config), gpu,
                   xg::size_mode::general);
  };
  return compare_on("XgemmDirect IS4", make_tuner, cost, 600, /*gated=*/true);
}

bool conv2d_comparison() {
  namespace cv = atf::kernels::conv2d;
  const cv::problem prob{512, 512, 5, 5};
  const ocls::device gpu = ocls::find_device("NVIDIA", "K20m");
  const ocls::kernel kernel = cv::make_kernel();
  auto ctx = std::make_shared<ocls::context>(gpu);
  ocls::kernel_args args;
  args.emplace_back(static_cast<double>(prob.height));
  args.emplace_back(static_cast<double>(prob.width));
  args.emplace_back(static_cast<double>(prob.filter_height));
  args.emplace_back(static_cast<double>(prob.filter_width));
  args.emplace_back(std::make_shared<ocls::buffer<float>>(prob.height *
                                                          prob.width));
  args.emplace_back(std::make_shared<ocls::buffer<float>>(
      prob.filter_height * prob.filter_width));
  args.emplace_back(std::make_shared<ocls::buffer<float>>(
      prob.out_height() * prob.out_width()));

  auto make_tuner = [&] {
    auto setup = cv::make_tuning_parameters(prob);
    atf::tuner tuner;
    tuner.tuning_parameters(setup.groups()[0], setup.groups()[1]);
    return tuner;
  };
  auto cost = [&](const atf::configuration& config) -> double {
    const auto p = atf::kernels::params_from<cv::params>(config);
    ocls::command_queue queue(ctx);
    try {
      return queue
          .launch(kernel, cv::launch_range(prob, p), args,
                  cv::make_defines(prob, p))
          .profile_ns();
    } catch (const ocls::error&) {
      return std::numeric_limits<double>::infinity();
    }
  };
  // Informational on conv2d — the acceptance gate is pinned to XgemmDirect.
  return compare_on("conv2d 512x512 5x5", make_tuner, cost, 400,
                    /*gated=*/false);
}

/// --small: drive surrogate_search through batched evaluation with worker
/// threads on a pure cost function — the TSan workout.
struct small_cost {
  static constexpr bool thread_safe = true;
  double operator()(const atf::configuration& config) const {
    const int x = config["x"];
    const int y = config["y"];
    if ((x + y) % 7 == 3) {
      return std::numeric_limits<double>::infinity();  // failure stripe
    }
    double cost = (x - 17) * (x - 17) + (y - 42) * (y - 42);
    if (x % 4 != 0) {
      cost += 25;
    }
    return cost;
  }
};

int small_run() {
  auto x = atf::tp("x", atf::interval<int>(0, 63));
  auto y = atf::tp("y", atf::interval<int>(0, 63));
  atf::tuner tuner;
  tuner.tuning_parameters(x, y);
  tuner.search_technique(std::make_unique<atf::search::surrogate_search>(7));
  tuner.abort_condition(atf::cond::evaluations(200));
  tuner.evaluation(atf::evaluation_mode::batched);
  tuner.concurrency(4);
  tuner.cache_evaluations(true);
  const auto result = tuner.tune(small_cost{});
  std::printf("small: %llu evaluations, best %.1f\n",
              static_cast<unsigned long long>(result.evaluations),
              result.has_best() ? *result.best_cost : -1.0);
  return result.has_best() ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc > 1 && std::strcmp(argv[1], "--small") == 0) {
    return small_run();
  }
  std::printf("=== Surrogate-guided search (DESIGN.md §10) ===\n\n");
  const bool xgemm_ok = xgemm_comparison();
  const bool conv_ok = conv2d_comparison();
  if (!xgemm_ok || !conv_ok) {
    std::printf("FAIL: acceptance gate not met\n");
    return 1;
  }
  std::printf("PASS\n");
  return 0;
}
