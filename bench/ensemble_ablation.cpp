// Ablation for the OpenTuner-style ensemble design (DESIGN.md §6, Section
// IV-C): the AUC bandit adaptively allocates evaluations among a pool of
// techniques. This bench pits the full bandit ensemble against every pool
// member running solo — each over the same 1-D configuration-index domain
// of the constrained XgemmDirect space, with identical budgets and seeds —
// and reports the best cost each one reaches. The ensemble's value is
// robustness: per-workload some solo technique may win, but the bandit is
// never far from the per-workload best without knowing it in advance
// (OpenTuner's core argument).
#include <cstdio>
#include <memory>
#include <vector>

#include "atf/search/ensemble.hpp"
#include "atf/search/genetic.hpp"
#include "atf/search/mutation.hpp"
#include "atf/search/nelder_mead.hpp"
#include "atf/search/particle_swarm.hpp"
#include "atf/search/pattern_search.hpp"
#include "atf/search/random_technique.hpp"
#include "atf/search/torczon.hpp"
#include "bench_common.hpp"

using namespace bench;
using namespace atf::search;

namespace {

using technique_factory =
    std::function<std::unique_ptr<domain_technique>()>;

double run_engine(ensemble& engine, const numeric_domain& domain,
                  std::uint64_t seed, std::uint64_t budget,
                  const std::function<double(std::uint64_t)>& cost) {
  engine.initialize(domain, seed);
  double best = std::numeric_limits<double>::infinity();
  for (std::uint64_t i = 0; i < budget; ++i) {
    const point p = engine.next_point();
    const double c = cost(p[0]);
    best = std::min(best, c);
    engine.report(c);
  }
  return best;
}

}  // namespace

int main() {
  std::printf("=== Ablation: AUC-bandit ensemble vs solo techniques ===\n\n");

  const std::vector<std::pair<const char*, technique_factory>> pool{
      {"nelder-mead", [] { return std::make_unique<nelder_mead>(); }},
      {"torczon", [] { return std::make_unique<torczon>(); }},
      {"pattern", [] { return std::make_unique<pattern_search>(); }},
      {"mutation", [] { return std::make_unique<mutation>(); }},
      {"genetic", [] { return std::make_unique<genetic>(); }},
      {"pso", [] { return std::make_unique<particle_swarm>(); }},
      {"random", [] { return std::make_unique<random_technique>(); }},
  };

  const std::uint64_t budget = 8'000;
  const std::uint64_t seeds[] = {1, 2, 3};

  for (const int is : {2, 4}) {
    const xg::problem prob = xg::caffe_input_size(is);
    const ocls::device dev = ocls::find_device("NVIDIA", "K20m");
    auto setup = xg::make_tuning_parameters(
        prob, xg::size_mode::general, xg::device_limits::of(dev.profile()));
    const auto space = atf::search_space::generate({setup.group()});
    const numeric_domain domain({space.size()});

    auto cost = [&](std::uint64_t index) {
      const auto config = space.config_at(index);
      return measure(prob, atf::kernels::params_from<xg::params>(config), dev,
                     xg::size_mode::general);
    };

    std::printf("--- XgemmDirect IS%d on %s (space %llu, budget %llu "
                "evals, best over %zu seeds) ---\n",
                is, dev.name().c_str(),
                static_cast<unsigned long long>(space.size()),
                static_cast<unsigned long long>(budget), std::size(seeds));

    double ensemble_best = std::numeric_limits<double>::infinity();
    for (const auto seed : seeds) {
      ensemble engine;  // full bandit pool
      ensemble_best =
          std::min(ensemble_best,
                   run_engine(engine, domain, seed, budget, cost));
    }
    std::printf("%-14s best %10.3f us\n", "ENSEMBLE", ensemble_best / 1e3);

    double best_solo = std::numeric_limits<double>::infinity();
    for (const auto& [name, make] : pool) {
      double solo_best = std::numeric_limits<double>::infinity();
      for (const auto seed : seeds) {
        std::vector<std::unique_ptr<domain_technique>> members;
        members.push_back(make());
        ensemble engine(std::move(members));
        solo_best = std::min(
            solo_best, run_engine(engine, domain, seed, budget, cost));
      }
      best_solo = std::min(best_solo, solo_best);
      std::printf("%-14s best %10.3f us\n", name, solo_best / 1e3);
    }
    std::printf("ensemble within %.2fx of the best solo technique "
                "(robustness without per-workload tuning)\n\n",
                ensemble_best / best_solo);
  }
  return 0;
}
