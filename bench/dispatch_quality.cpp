// Dispatch-quality sweep: how close does multi-size dispatch get to the
// per-shape oracle, and how far ahead of the shipped defaults does it stay?
//
// Grid-tunes blasmini::dispatcher over a problem-size grid, then visits a
// held-out size sweep three ways per shape:
//   oracle     an exact-shape tune at the same budget (the upper bound a
//              per-size database would reach),
//   dispatched the dispatcher's nearest/re-ranked decision (no tuning at
//              the query shape),
//   defaults   the kernel's built-in configuration (CLBlast's fallback,
//              paper Section VI-B).
//
// Usage: dispatch_quality [--small]
//   --small    sanitizer-budget variant (tiny grid, 3 held-out shapes) —
//              wired into the ASan and TSan CI jobs. Its grid still trains
//              the surrogate re-ranker, so "re-rank samples" is never 0.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "blasmini/dispatch.hpp"

namespace xg = atf::kernels::xgemm;

int main(int argc, char** argv) {
  const bool small = argc > 1 && std::strcmp(argv[1], "--small") == 0;

  const auto dev = ocls::find_device("NVIDIA", "K20m");
  const std::string grid_spec =
      small ? "16,48x16,48x16" : "96,384x96,384x96,256";
  const std::uint64_t evaluations = small ? 120 : 400;
  const std::vector<xg::problem> heldout =
      small ? std::vector<xg::problem>{{24, 24, 16}, {40, 20, 16},
                                       {64, 64, 16}}
            : std::vector<xg::problem>{{128, 128, 128}, {192, 256, 160},
                                       {320, 192, 128}, {256, 320, 96},
                                       {160, 384, 192}, {384, 160, 128},
                                       {288, 288, 224}, {224, 352, 160},
                                       {352, 224, 96},  {256, 256, 256},
                                       {320, 320, 128}, {192, 192, 192}};

  blasmini::dispatch_options opts;
  opts.tuning.evaluations = evaluations;
  opts.journal_dir = "/tmp/dispatch_quality_journals";
  (void)std::system(("rm -rf '" + opts.journal_dir + "' && mkdir -p '" +
                     opts.journal_dir + "'")
                        .c_str());
  blasmini::dispatcher dispatch(dev, opts);

  const auto grid = blasmini::size_grid::parse(grid_spec);
  const auto t0 = std::chrono::steady_clock::now();
  dispatch.tune_grid(grid);
  const auto t1 = std::chrono::steady_clock::now();
  std::printf("grid %-22s  %zu points, %llu evals/point, tuned in %.2f s, "
              "re-rank samples %zu\n\n",
              grid_spec.c_str(), grid.sizes.size(),
              static_cast<unsigned long long>(evaluations),
              std::chrono::duration<double>(t1 - t0).count(),
              dispatch.rerank_samples());

  std::printf("%-14s %12s %12s %12s %9s %9s  %s\n", "held-out size",
              "oracle us", "dispatch us", "default us", "disp/orc",
              "def/disp", "served by");
  double log_gap_sum = 0.0, log_speedup_sum = 0.0;
  std::size_t wins = 0;
  for (const xg::problem& shape : heldout) {
    const auto decision = dispatch.dispatch(shape.m, shape.n, shape.k);
    const double t_disp = dispatch.executor().modeled_time_ns(
        shape.m, shape.n, shape.k, decision.params);
    const double t_def = dispatch.executor().modeled_time_ns(
        shape.m, shape.n, shape.k, xg::params::defaults());

    // Oracle: tune the exact shape at the same budget, without touching the
    // dispatcher's journals.
    blasmini::gemm_executor oracle(dev);
    blasmini::tune_options oracle_opts = opts.tuning;
    const auto oracle_params =
        oracle.tune(shape.m, shape.n, shape.k, oracle_opts);
    const double t_oracle = oracle.modeled_time_ns(shape.m, shape.n, shape.k,
                                                   oracle_params);

    const std::string signature = blasmini::gemm_executor::problem_signature(
        shape.m, shape.n, shape.k);
    const char* const source_names[] = {"exact", "reranked", "nearest",
                                        "defaults"};
    std::string served = source_names[static_cast<int>(decision.from)];
    if (!decision.neighbor.empty()) {
      served += " " + decision.neighbor;
    }
    std::printf("%-14s %12.2f %12.2f %12.2f %9.2f %9.2f  %s\n",
                signature.c_str(), t_oracle / 1e3, t_disp / 1e3, t_def / 1e3,
                t_disp / t_oracle, t_def / t_disp, served.c_str());
    log_gap_sum += std::log(t_disp / t_oracle);
    log_speedup_sum += std::log(t_def / t_disp);
    wins += (t_disp <= t_def) ? 1 : 0;
  }

  const double gap = std::exp(log_gap_sum / heldout.size());
  const double speedup = std::exp(log_speedup_sum / heldout.size());
  std::printf("\ndispatched-vs-oracle gap (geomean): %.2fx   "
              "dispatched-vs-defaults speedup (geomean): %.2fx   "
              "beats defaults on %zu/%zu\n",
              gap, speedup, wins, heldout.size());
  return 0;
}
