// The complete downstream workflow of an auto-tuned kernel library
// (CLBlast-style), built on ATF — now with multi-size dynamic dispatch:
//
//   1. Install time: grid-tune a set of representative GEMM shapes, each
//      under its own crash-safe journal — the per-key layout atf_served
//      serves, so a daemon over the same directory answers these shapes.
//   2. Application, cold call: a shape the grid never saw is served its
//      nearest tuned neighbour's configuration (log-size metric, surrogate
//      re-ranking over the journals) — already faster than the built-in
//      defaults, and the shape is queued for background refinement.
//   3. Refinement: the queue is drained by an exact-shape tune; the same
//      call is now an exact hit served at full tuned speed.
//
// Build & run:  ./examples/tuned_blas_library
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "blasmini/dispatch.hpp"

namespace xg = atf::kernels::xgemm;

namespace {

const char* source_name(blasmini::dispatcher::source s) {
  switch (s) {
    case blasmini::dispatcher::source::exact: return "exact hit";
    case blasmini::dispatcher::source::reranked: return "re-ranked";
    case blasmini::dispatcher::source::nearest: return "nearest";
    case blasmini::dispatcher::source::defaults: return "defaults";
  }
  return "?";
}

void report(blasmini::dispatcher& dispatch, std::size_t m, std::size_t n,
            std::size_t k) {
  const auto decision = dispatch.dispatch(m, n, k);
  const double t = dispatch.executor().modeled_time_ns(m, n, k,
                                                       decision.params);
  const double t_def =
      dispatch.executor().modeled_time_ns(m, n, k, xg::params::defaults());
  std::printf("  dispatch %zux%zux%zu: %-9s", m, n, k,
              source_name(decision.from));
  if (!decision.neighbor.empty()) {
    std::printf(" (from %s, log-distance %.2f)", decision.neighbor.c_str(),
                decision.distance);
  }
  std::printf("  %8.2f us vs defaults %8.2f us  -> %.2fx\n", t / 1e3,
              t_def / 1e3, t_def / t);
}

}  // namespace

int main() {
  const std::string journal_dir = "/tmp/blasmini_example_journals";
  (void)std::system(("rm -rf '" + journal_dir + "' && mkdir -p '" +
                     journal_dir + "'")
                        .c_str());

  const auto dev = ocls::find_device("NVIDIA", "K20m");
  blasmini::dispatch_options opts;
  opts.journal_dir = journal_dir;  // crash-safe: SIGKILL + rerun resumes
  opts.tuning.evaluations = 400;

  // --- "Install-time" grid tune -------------------------------------------
  {
    blasmini::dispatcher dispatch(dev, opts);
    const auto grid = blasmini::size_grid::parse("96,384x96,384x96,256");
    std::printf("grid-tuning %zu shapes on %s (journals in %s)...\n",
                grid.sizes.size(), dev.name().c_str(), journal_dir.c_str());
    dispatch.tune_grid(grid);
    std::printf("%zu sizes tuned, re-ranker trained on %zu journal "
                "records\n\n",
                dispatch.known_sizes().size(), dispatch.rerank_samples());
  }

  // --- "Application" process: reload the journals and dispatch -----------
  blasmini::dispatcher dispatch(dev, opts);

  std::printf("grid shapes dispatch as exact hits:\n");
  report(dispatch, 96, 96, 96);

  std::printf("\ncold shapes are served their nearest tuned neighbour:\n");
  report(dispatch, 256, 192, 160);
  report(dispatch, 144, 320, 96);

  // Every cold dispatch queued its shape for exact-shape refinement.
  std::printf("\n%zu shapes pending refinement; tuning the first...\n",
              dispatch.pending_refinements());
  dispatch.refine(1);

  std::printf("after refinement the same call is an exact hit:\n");
  report(dispatch, 256, 192, 160);

  (void)std::system(("rm -rf '" + journal_dir + "'").c_str());
  return 0;
}
