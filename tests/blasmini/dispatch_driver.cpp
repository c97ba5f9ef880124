// Helper binary for the dispatch kill-and-resume test: grid-tunes the
// dispatcher under per-size session journals, optionally SIGKILLing itself
// from *inside* the kernel cost function after a given number of fresh
// measurements (mid-grid, mid-size — wherever the append protocol happens
// to be), then dispatches every held-out shape and prints one fully
// deterministic line per decision. A killed run re-executed on the same
// journal directory must print bit-identical dispatch lines to a run that
// was never interrupted — that equality is the test.
//
// Usage: dispatch_driver <journal_dir> <grid_spec> <heldout_spec>
//                        <evaluations> [kill_after_measurements]
//
// stdout (the bit-compared surface):
//   known=<sig,sig,...> samples=<n>
//   <sig> from=<n> neighbor=<sig|-> distance=<%.17g> valid=<0|1>
//       t=<%.17g> t_def=<%.17g> params=<to_string>
// stderr (informational only): measured=<n>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <string>

#include "blasmini/dispatch.hpp"

namespace xg = atf::kernels::xgemm;

int main(int argc, char** argv) {
  if (argc < 5) {
    std::fprintf(stderr,
                 "usage: %s <journal_dir> <grid_spec> <heldout_spec> "
                 "<evaluations> [kill_after]\n",
                 argv[0]);
    return 2;
  }
  const std::string journal_dir = argv[1];
  const auto grid = blasmini::size_grid::parse(argv[2]);
  const auto heldout = blasmini::size_grid::parse(argv[3]);
  const auto evaluations = std::strtoull(argv[4], nullptr, 10);
  const auto kill_after =
      argc > 5 ? std::strtoull(argv[5], nullptr, 10) : 0ull;

  // Completed grid points replay their measured prefix from their journals
  // instantly, so only the journal directory needs to survive the crash.
  blasmini::dispatch_options opts;
  opts.journal_dir = journal_dir;
  opts.tuning.evaluations = evaluations;
  unsigned long long measured = 0;
  opts.tuning.on_measure = [&] {
    ++measured;
    if (kill_after != 0 && measured >= kill_after) {
      // Die the way a crashed machine dies: no destructors, no stdio
      // flush — only what the journals already pushed to the kernel
      // survives.
      std::raise(SIGKILL);
    }
  };

  blasmini::dispatcher dispatch(ocls::find_device("NVIDIA", "K20m"), opts);
  dispatch.tune_grid(grid);

  std::string known;
  for (const auto& signature : dispatch.known_sizes()) {
    known += known.empty() ? signature : "," + signature;
  }
  std::printf("known=%s samples=%zu\n", known.c_str(),
              dispatch.rerank_samples());

  const auto limits =
      xg::device_limits::of(dispatch.executor().device().profile());
  for (const xg::problem& shape : heldout.sizes) {
    const auto decision = dispatch.dispatch(shape.m, shape.n, shape.k);
    const bool valid = xg::valid(shape, decision.params,
                                 xg::size_mode::general, limits);
    const double t = dispatch.executor().modeled_time_ns(
        shape.m, shape.n, shape.k, decision.params);
    const double t_def = dispatch.executor().modeled_time_ns(
        shape.m, shape.n, shape.k, xg::params::defaults());
    std::printf("%s from=%d neighbor=%s distance=%.17g valid=%d t=%.17g "
                "t_def=%.17g params=%s\n",
                blasmini::gemm_executor::problem_signature(shape.m, shape.n,
                                                           shape.k)
                    .c_str(),
                static_cast<int>(decision.from),
                decision.neighbor.empty() ? "-" : decision.neighbor.c_str(),
                decision.distance, valid ? 1 : 0, t, t_def,
                decision.params.to_string().c_str());
  }
  std::fprintf(stderr, "measured=%llu\n", measured);
  return 0;
}
