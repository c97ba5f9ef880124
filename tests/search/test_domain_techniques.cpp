// Tests for the numeric-domain sub-techniques and the AUC-bandit ensemble,
// exercised directly through the propose/report protocol on synthetic
// functions with known optima.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <memory>
#include <vector>

#include "atf/search/auc_bandit.hpp"
#include "atf/search/ensemble.hpp"
#include "atf/search/genetic.hpp"
#include "atf/search/mutation.hpp"
#include "atf/search/nelder_mead.hpp"
#include "atf/search/numeric_domain.hpp"
#include "atf/search/particle_swarm.hpp"
#include "atf/search/pattern_search.hpp"
#include "atf/search/random_technique.hpp"
#include "atf/search/surrogate_arm.hpp"
#include "atf/search/torczon.hpp"

namespace {

using namespace atf::search;

double sphere(const point& p, const std::vector<double>& target) {
  double sum = 0.0;
  for (std::size_t i = 0; i < p.size(); ++i) {
    const double d = static_cast<double>(p[i]) - target[i];
    sum += d * d;
  }
  return sum;
}

/// Drives a technique for `budget` steps; returns best cost seen.
double drive(domain_technique& technique, const numeric_domain& domain,
             std::uint64_t seed, int budget,
             const std::function<double(const point&)>& f) {
  technique.initialize(domain, seed);
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < budget; ++i) {
    const point p = technique.next_point();
    const double cost = f(p);
    best = std::min(best, cost);
    technique.report(cost);
  }
  return best;
}

TEST(NumericDomain, SizeAndSaturation) {
  numeric_domain d({4, 5, 6});
  EXPECT_EQ(d.dimensions(), 3u);
  EXPECT_EQ(d.size_saturated(), 120u);
  numeric_domain huge(std::vector<std::uint64_t>(8, std::uint64_t{1} << 32));
  EXPECT_EQ(huge.size_saturated(), std::numeric_limits<std::uint64_t>::max());
}

TEST(NumericDomain, RejectsEmptyOrZeroAxes) {
  EXPECT_THROW(numeric_domain(std::vector<std::uint64_t>{}),
               std::invalid_argument);
  EXPECT_THROW(numeric_domain(std::vector<std::uint64_t>{4, 0}),
               std::invalid_argument);
}

TEST(NumericDomain, ClampRoundsAndBounds) {
  numeric_domain d({10});
  EXPECT_EQ(d.clamp({-3.2})[0], 0u);
  EXPECT_EQ(d.clamp({4.4})[0], 4u);
  EXPECT_EQ(d.clamp({4.6})[0], 5u);
  EXPECT_EQ(d.clamp({99.0})[0], 9u);
}

TEST(NumericDomain, RandomPointInBounds) {
  numeric_domain d({3, 7, 11});
  atf::common::xoshiro256 rng(4);
  for (int i = 0; i < 500; ++i) {
    const point p = d.random_point(rng);
    for (std::size_t a = 0; a < 3; ++a) {
      EXPECT_LT(p[a], d.axis_size(a));
    }
  }
}

class SubTechniqueTest
    : public ::testing::TestWithParam<std::function<
          std::unique_ptr<domain_technique>()>> {};

TEST_P(SubTechniqueTest, ImprovesOnSphere2D) {
  numeric_domain domain({128, 128});
  const std::vector<double> target{37.0, 91.0};
  auto technique = GetParam()();
  const double best = drive(*technique, domain, 11, 600,
                            [&](const point& p) { return sphere(p, target); });
  // Random baseline over 600 samples lands near ~25 on average; local
  // techniques must do clearly better than a wide miss.
  EXPECT_LT(best, 100.0);
}

TEST_P(SubTechniqueTest, HandlesSingletonAxes) {
  numeric_domain domain({1, 1, 1});
  auto technique = GetParam()();
  const double best =
      drive(*technique, domain, 3, 20, [](const point&) { return 7.0; });
  EXPECT_EQ(best, 7.0);
}

TEST_P(SubTechniqueTest, SurvivesInfiniteCosts) {
  numeric_domain domain({64});
  auto technique = GetParam()();
  const double best =
      drive(*technique, domain, 5, 300, [](const point& p) -> double {
        if (p[0] % 2 == 1) {
          return std::numeric_limits<double>::infinity();
        }
        return static_cast<double>(p[0]);
      });
  EXPECT_EQ(best, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Pool, SubTechniqueTest,
    ::testing::Values(
        [] { return std::unique_ptr<domain_technique>(new nelder_mead()); },
        [] { return std::unique_ptr<domain_technique>(new torczon()); },
        [] { return std::unique_ptr<domain_technique>(new pattern_search()); },
        [] { return std::unique_ptr<domain_technique>(new mutation()); },
        [] { return std::unique_ptr<domain_technique>(new genetic()); },
        [] { return std::unique_ptr<domain_technique>(new particle_swarm()); },
        [] {
          return std::unique_ptr<domain_technique>(new random_technique());
        },
        [] { return std::unique_ptr<domain_technique>(new surrogate_arm()); }));

TEST(PatternSearch, DescendsMonotoneFunctionToOptimum) {
  numeric_domain domain({1024});
  pattern_search technique;
  const double best = drive(technique, domain, 17, 400, [](const point& p) {
    return static_cast<double>(p[0]);
  });
  EXPECT_EQ(best, 0.0);
}

TEST(NelderMead, FindsExactOptimumOn1D) {
  numeric_domain domain({512});
  nelder_mead technique;
  const double best = drive(technique, domain, 23, 400, [](const point& p) {
    const double d = static_cast<double>(p[0]) - 200.0;
    return d * d;
  });
  EXPECT_LE(best, 4.0);
}

TEST(Genetic, ConvergesOnSphere) {
  numeric_domain domain({256, 256});
  genetic technique;
  const double best = drive(technique, domain, 41, 1200, [](const point& p) {
    return sphere(p, {200.0, 30.0});
  });
  EXPECT_LT(best, 100.0);
}

TEST(Genetic, ElitesSurviveGenerations) {
  // With mutation off and crossover off, the best individual must persist:
  // the best cost can never regress across generations.
  genetic::options opts;
  opts.population = 8;
  opts.crossover_rate = 0.0;
  opts.mutation_rate = 0.0;
  opts.elites = 2;
  genetic technique(opts);
  numeric_domain domain({1024});
  technique.initialize(domain, 5);
  double best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 64; ++i) {
    const point p = technique.next_point();
    const double cost = static_cast<double>(p[0]);
    best = std::min(best, cost);
    technique.report(cost);
  }
  // After several generations the population still contains the elite.
  bool elite_seen = false;
  for (int i = 0; i < 8; ++i) {
    const point p = technique.next_point();
    if (static_cast<double>(p[0]) == best) {
      elite_seen = true;
    }
    technique.report(static_cast<double>(p[0]));
  }
  EXPECT_TRUE(elite_seen);
}

TEST(Genetic, BatchedPointsMatchTheSequentialStream) {
  // One generation is the natural batch: proposing and reporting whole
  // batches, at any width, must visit the points the one-at-a-time
  // interface visits, in the same order.
  numeric_domain domain({256, 256});
  const auto cost = [](const point& p) { return sphere(p, {200.0, 30.0}); };
  constexpr std::size_t kBudget = 300;
  genetic sequential;
  sequential.initialize(domain, 41);
  std::vector<point> expected;
  while (expected.size() < kBudget) {
    expected.push_back(sequential.next_point());
    sequential.report(cost(expected.back()));
  }
  for (const std::size_t width : {1u, 3u, 64u}) {
    genetic batched;
    batched.initialize(domain, 41);
    std::vector<point> visited;
    while (visited.size() < kBudget) {
      const auto batch = batched.propose_points(
          std::min({width, batched.max_batch(), kBudget - visited.size()}));
      ASSERT_FALSE(batch.empty());
      std::vector<double> costs;
      for (const point& p : batch) {
        visited.push_back(p);
        costs.push_back(cost(p));
      }
      batched.report_points(costs);
    }
    EXPECT_EQ(visited, expected) << "width " << width;
  }
}

TEST(ParticleSwarm, ConvergesOnSphere) {
  numeric_domain domain({256, 256});
  particle_swarm technique;
  const double best = drive(technique, domain, 43, 1200, [](const point& p) {
    return sphere(p, {60.0, 220.0});
  });
  EXPECT_LT(best, 100.0);
}

TEST(ParticleSwarm, PositionsStayInBounds) {
  numeric_domain domain({16, 4});
  particle_swarm technique;
  technique.initialize(domain, 3);
  for (int i = 0; i < 500; ++i) {
    const point p = technique.next_point();
    EXPECT_LT(p[0], 16u);
    EXPECT_LT(p[1], 4u);
    technique.report(static_cast<double>(p[0] + p[1]));
  }
}

TEST(Torczon, ContractsOntoOptimum) {
  numeric_domain domain({256, 256});
  torczon technique;
  const double best = drive(technique, domain, 31, 800, [](const point& p) {
    return sphere(p, {100.0, 150.0});
  });
  EXPECT_LT(best, 64.0);
}

TEST(AucBandit, PrefersSuccessfulArm) {
  auc_bandit bandit(3, 100, 0.0);
  // Arm 1 always succeeds, the others never do.
  for (int i = 0; i < 30; ++i) {
    bandit.record(0, false);
    bandit.record(1, true);
    bandit.record(2, false);
  }
  EXPECT_EQ(bandit.select(), 1u);
  EXPECT_GT(bandit.auc(1), bandit.auc(0));
}

TEST(AucBandit, ExplorationBonusVisitsUnusedArms) {
  auc_bandit bandit(2, 100, 0.05);
  bandit.record(0, true);
  // Arm 1 was never used inside the window -> infinite exploration bonus.
  EXPECT_EQ(bandit.select(), 1u);
}

TEST(AucBandit, WindowForgetsOldSuccesses) {
  auc_bandit bandit(2, 10, 0.0);
  for (int i = 0; i < 10; ++i) {
    bandit.record(0, true);
  }
  // Push arm 0's successes out of the window with failures.
  for (int i = 0; i < 10; ++i) {
    bandit.record(0, false);
  }
  for (int i = 0; i < 3; ++i) {
    bandit.record(1, true);
  }
  EXPECT_EQ(bandit.select(), 1u);
}

TEST(AucBandit, RecentSuccessWeighsMoreThanOldSuccess) {
  auc_bandit bandit(2, 100, 0.0);
  // Arm 0: success then failures; arm 1: failures then success.
  bandit.record(0, true);
  bandit.record(0, false);
  bandit.record(0, false);
  bandit.record(1, false);
  bandit.record(1, false);
  bandit.record(1, true);
  EXPECT_GT(bandit.auc(1), bandit.auc(0));
}

TEST(Ensemble, UsesEveryPoolMember) {
  ensemble engine;
  numeric_domain domain({64, 64});
  engine.initialize(domain, 9);
  for (int i = 0; i < 400; ++i) {
    const point p = engine.next_point();
    engine.report(sphere(p, {10.0, 20.0}));
  }
  const auto uses = engine.technique_uses();
  ASSERT_EQ(uses.size(), 8u);  // 7 classic members + the surrogate arm
  for (const auto n : uses) {
    EXPECT_GT(n, 0u) << "bandit starved a pool member";
  }
}

TEST(Ensemble, TracksGlobalBest) {
  ensemble engine;
  numeric_domain domain({128});
  engine.initialize(domain, 13);
  double expected_best = std::numeric_limits<double>::infinity();
  for (int i = 0; i < 300; ++i) {
    const point p = engine.next_point();
    const double cost = static_cast<double>((p[0] % 37) * 3 + p[0] / 50);
    expected_best = std::min(expected_best, cost);
    engine.report(cost);
  }
  EXPECT_TRUE(engine.has_best());
  EXPECT_EQ(engine.best_cost(), expected_best);
}

TEST(Ensemble, CustomPoolRespected) {
  std::vector<std::unique_ptr<domain_technique>> pool;
  pool.push_back(std::make_unique<random_technique>());
  ensemble engine(std::move(pool));
  numeric_domain domain({16});
  engine.initialize(domain, 3);
  for (int i = 0; i < 50; ++i) {
    (void)engine.next_point();
    engine.report(1.0);
  }
  EXPECT_EQ(engine.technique_uses()[0], 50u);
}

TEST(Ensemble, EmptyPoolThrows) {
  EXPECT_THROW(
      ensemble(std::vector<std::unique_ptr<domain_technique>>{}),
      std::invalid_argument);
}

}  // namespace
