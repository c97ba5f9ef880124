// Surrogate-guided search: the forest's determinism contract, the trainer's
// invalid-cost routing, the feature encoder, and the technique end to end
// through the tuner — fixed-seed bit-identity, batched-at-1 ≡ sequential,
// warm-start-from-journal ≡ warm-start-from-in-memory-store, and the
// empty/all-invalid edge cases (DESIGN.md §10).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <memory>
#include <set>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "atf/atf.hpp"
#include "atf/search/random_search.hpp"
#include "atf/search/surrogate_arm.hpp"
#include "atf/search/surrogate_model.hpp"
#include "atf/search/surrogate_search.hpp"
#include "atf/session/journal.hpp"
#include "atf/session/result_store.hpp"
#include "atf/session/session.hpp"

namespace {

using atf::search::feature_encoder;
using atf::search::feature_vector;
using atf::search::surrogate_model;
using atf::search::surrogate_prediction;
using atf::search::surrogate_search;
using atf::search::surrogate_trainer;

constexpr double kInf = std::numeric_limits<double>::infinity();

atf::tuner make_rugged_tuner() {
  auto x = atf::tp("x", atf::interval<int>(0, 63));
  auto y = atf::tp("y", atf::interval<int>(0, 63));
  atf::tuner t;
  t.tuning_parameters(x, y);
  return t;
}

double rugged_cost(const atf::configuration& config) {
  const int x = config["x"];
  const int y = config["y"];
  double cost = (x - 17) * (x - 17) + (y - 42) * (y - 42);
  if (x % 4 != 0) {
    cost += 25;
  }
  if (y % 8 != 0) {
    cost += 50;
  }
  return cost;
}

TEST(FeatureEncoder, TwoFeaturesPerParameterInDeclarationOrder) {
  feature_encoder encoder({"a", "b"});
  EXPECT_EQ(encoder.width(), 4u);
  atf::configuration config;
  config.add("b", 8);
  config.add("a", 3);
  const auto features = encoder.encode(config);
  ASSERT_TRUE(features.has_value());
  ASSERT_EQ(features->size(), 4u);
  EXPECT_DOUBLE_EQ((*features)[0], 3.0);
  EXPECT_DOUBLE_EQ((*features)[1], std::asinh(3.0));
  EXPECT_DOUBLE_EQ((*features)[2], 8.0);
  EXPECT_DOUBLE_EQ((*features)[3], std::asinh(8.0));
}

TEST(FeatureEncoder, MissingParameterYieldsNullopt) {
  feature_encoder encoder({"a", "b"});
  atf::configuration config;
  config.add("a", 1);
  EXPECT_FALSE(encoder.encode(config).has_value());
}

TEST(SurrogateModel, FitIsBitDeterministic) {
  std::vector<feature_vector> features;
  std::vector<double> targets;
  for (int i = 0; i < 64; ++i) {
    features.push_back({static_cast<double>(i), std::asinh(i)});
    targets.push_back(static_cast<double>((i - 20) * (i - 20)));
  }
  surrogate_model a;
  surrogate_model b;
  a.fit(features, targets, 42);
  b.fit(features, targets, 42);
  for (int i = 0; i < 64; ++i) {
    const feature_vector x{static_cast<double>(i) + 0.5,
                           std::asinh(i + 0.5)};
    const auto pa = a.predict(x);
    const auto pb = b.predict(x);
    EXPECT_EQ(pa.mean, pb.mean);
    EXPECT_EQ(pa.stddev, pb.stddev);
  }
}

TEST(SurrogateModel, LearnsWhichRegionIsCheap) {
  // Low cost on the left half of the axis, high on the right.
  std::vector<feature_vector> features;
  std::vector<double> targets;
  for (int i = 0; i < 100; ++i) {
    features.push_back({static_cast<double>(i)});
    targets.push_back(i < 50 ? 1.0 : 100.0);
  }
  surrogate_model model;
  model.fit(features, targets, 7);
  EXPECT_LT(model.predict({10.0}).mean, model.predict({90.0}).mean);
}

TEST(SurrogateModel, RejectsMismatchedInput) {
  surrogate_model model;
  EXPECT_THROW(model.fit({}, {}, 1), std::invalid_argument);
  EXPECT_THROW(model.fit({{1.0}}, {1.0, 2.0}, 1), std::invalid_argument);
}

bool is_leaf(const surrogate_model::flat_forest& f, std::int32_t node) {
  return f.child[static_cast<std::size_t>(node)][0] == node;
}

// The batch pass against an independent walk: from each tree's root until
// a node whose children are itself, summed in tree order.
surrogate_prediction reference_predict(const surrogate_model& model,
                                       const double* x) {
  const surrogate_model::flat_forest& f = model.forest();
  double sum = 0.0;
  double sum_sq = 0.0;
  for (const std::int32_t root : f.root) {
    std::int32_t at = root;
    while (!is_leaf(f, at)) {
      const auto k = static_cast<std::size_t>(at);
      at = x[f.feature[k]] <= f.threshold[k] ? f.child[k][0] : f.child[k][1];
    }
    const double y = f.value[static_cast<std::size_t>(at)];
    sum += y;
    sum_sq += y * y;
  }
  const double count = static_cast<double>(f.root.size());
  surrogate_prediction out;
  out.mean = sum / count;
  out.stddev = std::sqrt(std::max(0.0, sum_sq / count - out.mean * out.mean));
  return out;
}

std::uint64_t bits(double d) { return std::bit_cast<std::uint64_t>(d); }

/// n candidate rows of width 3, row-major, with NaN and ±inf sprinkled in.
std::vector<double> candidate_rows(std::size_t n) {
  std::vector<double> rows;
  for (std::size_t i = 0; i < n; ++i) {
    const double a = static_cast<double>((i * 37) % 61) - 5.0;
    const double b = static_cast<double>((i * 11) % 17);
    double c = static_cast<double>(i % 9) * 0.5;
    if (i % 13 == 4) {
      c = std::numeric_limits<double>::quiet_NaN();
    } else if (i % 13 == 7) {
      c = kInf;
    } else if (i % 13 == 9) {
      c = -kInf;
    }
    rows.insert(rows.end(), {i % 11 == 3 ? std::nan("") : a, b, c});
  }
  return rows;
}

/// Leaf depths of one tree, by an explicit preorder walk.
void leaf_depths(const surrogate_model::flat_forest& f, std::int32_t node,
                 std::uint32_t depth, std::vector<std::uint32_t>& out) {
  if (is_leaf(f, node)) {
    out.push_back(depth);
    return;
  }
  const auto& children = f.child[static_cast<std::size_t>(node)];
  leaf_depths(f, children[0], depth + 1, out);
  leaf_depths(f, children[1], depth + 1, out);
}

void expect_batch_matches(const surrogate_model& model) {
  for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 255u, 256u, 257u}) {
    const std::vector<double> rows = candidate_rows(n);
    std::vector<double> sum(n, -1.0);
    std::vector<double> sum_sq(n, -1.0);
    model.predict_sums(rows.data(), n, sum.data(), sum_sq.data());
    for (std::size_t i = 0; i < n; ++i) {
      const double* row = rows.data() + 3 * i;
      const auto batch = model.summarize(sum[i], sum_sq[i]);
      const auto single = model.predict(feature_vector(row, row + 3));
      const auto reference = reference_predict(model, row);
      ASSERT_EQ(bits(batch.mean), bits(reference.mean)) << n << " " << i;
      ASSERT_EQ(bits(batch.stddev), bits(reference.stddev)) << n << " " << i;
      ASSERT_EQ(bits(single.mean), bits(reference.mean)) << n << " " << i;
      ASSERT_EQ(bits(single.stddev), bits(reference.stddev)) << n << " " << i;
    }
  }
}

TEST(SurrogateModel, BatchPassEqualsPredictAndTheNodeWalk) {
  std::vector<feature_vector> features;
  std::vector<double> targets;
  for (int i = 0; i < 160; ++i) {
    const double a = static_cast<double>((i * 7) % 50) - 5.0;
    const double b = static_cast<double>((i * 3) % 17);
    const double c = static_cast<double>(i % 9) * 0.5;
    features.push_back({a, b, c});
    targets.push_back(std::asinh((a - 20) * (a - 20) + 3 * b + c));
  }
  surrogate_model model;
  model.fit(features, targets, 99);
  const surrogate_model::flat_forest& f = model.forest();
  ASSERT_EQ(f.root.size(), model.opts().trees);
  // Leaves shallower than their tree's step count exist: the fixed-length
  // walk must park on them.
  bool shallow = false;
  std::uint64_t steps = 0;
  for (std::size_t t = 0; t < f.root.size(); ++t) {
    std::vector<std::uint32_t> depths;
    leaf_depths(f, f.root[t], 0, depths);
    const std::uint32_t deepest = *std::max_element(depths.begin(), depths.end());
    EXPECT_EQ(f.depth[t], deepest);
    EXPECT_LE(deepest, model.opts().max_depth);
    shallow = shallow || *std::min_element(depths.begin(), depths.end()) <
                             deepest;
    steps += deepest;
  }
  EXPECT_TRUE(shallow);
  EXPECT_EQ(model.steps_per_candidate(), steps);
  expect_batch_matches(model);
}

TEST(SurrogateModel, SingleLeafForestTakesNoSteps) {
  // Constant targets: no split reduces the error, every tree is its root.
  std::vector<feature_vector> features;
  std::vector<double> targets;
  for (int i = 0; i < 40; ++i) {
    features.push_back({static_cast<double>(i), 1.0, 2.0});
    targets.push_back(3.5);
  }
  surrogate_model model;
  model.fit(features, targets, 1);
  EXPECT_EQ(model.steps_per_candidate(), 0u);
  EXPECT_EQ(model.forest().value.size(), model.opts().trees);
  expect_batch_matches(model);
  EXPECT_EQ(model.predict({0.0, 0.0, 0.0}).mean, 3.5);
}

TEST(SurrogateModel, ZeroWidthFeaturesFitSingleLeafTrees) {
  // A space without parameters encodes every configuration as an empty
  // feature vector: the forest predicts the mean and takes no steps.
  surrogate_model model;
  model.fit(std::vector<feature_vector>(8), {1, 2, 3, 4, 5, 6, 7, 8}, 1);
  EXPECT_EQ(model.steps_per_candidate(), 0u);
  const auto p = model.predict({});
  EXPECT_GT(p.mean, 1.0);
  EXPECT_LT(p.mean, 8.0);
}

TEST(SurrogateTrainer, ScoreBatchEqualsPerCandidateScore) {
  for (const bool with_invalid : {false, true}) {
    surrogate_trainer::options opts;
    opts.min_train = 8;
    opts.refit_interval = 8;
    surrogate_trainer trainer(opts, 21);
    for (int i = 0; i < 120; ++i) {
      const double a = static_cast<double>((i * 7) % 50) - 5.0;
      const double b = static_cast<double>((i * 3) % 17);
      const double c = static_cast<double>(i % 9) * 0.5;
      const bool invalid = with_invalid && (i * 5) % 11 == 2;
      trainer.add({a, b, c}, invalid ? kInf : (a - 20) * (a - 20) + b + c,
                  invalid);
    }
    ASSERT_EQ(trainer.invalid_samples() > 0, with_invalid);
    const std::vector<double> probe = candidate_rows(1);
    EXPECT_THROW(trainer.score_batch(probe.data(), 1, nullptr),
                 std::logic_error);
    trainer.fit_pending();
    for (const std::size_t n : {0u, 1u, 7u, 8u, 9u, 255u, 256u, 257u}) {
      const std::vector<double> rows = candidate_rows(n);
      std::vector<double> scores(n);
      trainer.score_batch(rows.data(), n, scores.data());
      for (std::size_t i = 0; i < n; ++i) {
        const double* row = rows.data() + 3 * i;
        const double single = trainer.score(feature_vector(row, row + 3));
        ASSERT_EQ(bits(scores[i]), bits(single))
            << "invalid head " << with_invalid << ", n " << n << ", row " << i;
      }
    }
  }
}

TEST(SurrogateTrainer, InvalidCostsNeverReachTheRegression) {
  surrogate_trainer::options opts;
  opts.min_train = 4;
  surrogate_trainer trainer(opts, 3);
  // Plenty of invalid samples alone never make the model ready: only valid
  // samples count toward min_train.
  for (int i = 0; i < 50; ++i) {
    trainer.add({static_cast<double>(i)}, kInf, true);
  }
  EXPECT_FALSE(trainer.ready());
  EXPECT_EQ(trainer.valid_samples(), 0u);
  EXPECT_EQ(trainer.invalid_samples(), 50u);
}

TEST(SurrogateTrainer, InvalidRegionIsPenalizedInTheScore) {
  surrogate_trainer::options opts;
  opts.min_train = 8;
  opts.refit_interval = 4;
  surrogate_trainer trainer(opts, 5);
  // Same flat valid cost everywhere, but the right half fails.
  for (int i = 0; i < 100; ++i) {
    const bool invalid = i >= 50;
    trainer.add({static_cast<double>(i)}, invalid ? kInf : 10.0, invalid);
  }
  ASSERT_TRUE(trainer.ready());
  trainer.fit_pending();
  EXPECT_LT(trainer.score({10.0}), trainer.score({90.0}));
}

TEST(SurrogateTrainer, ScoringWithAnUnbuiltRefitThrows) {
  surrogate_trainer::options opts;
  opts.min_train = 4;
  surrogate_trainer trainer(opts, 3);
  for (int i = 0; i < 4; ++i) {
    trainer.add({static_cast<double>(i)}, 1.0 + i, false);
  }
  ASSERT_TRUE(trainer.ready());
  EXPECT_THROW((void)trainer.score({1.0}), std::logic_error);
  trainer.fit_pending();
  EXPECT_NO_THROW((void)trainer.score({1.0}));
}

TEST(SurrogateTrainer, DeferredFitsEqualEagerFits) {
  // One trainer builds every refit as soon as it falls due, the other only
  // every 7th sample: the window (max_train 30) slides past samples a
  // pending fit still reads, and due refits supersede unbuilt ones. Scores
  // must agree bit for bit whenever both are built.
  surrogate_trainer::options opts;
  opts.min_train = 6;
  opts.refit_interval = 3;
  opts.max_train = 30;
  surrogate_trainer eager(opts, 11);
  surrogate_trainer deferred(opts, 11);
  for (int i = 0; i < 160; ++i) {
    const double x = static_cast<double>((i * 37) % 53);
    const double y = static_cast<double>((i * 11) % 7);
    const bool invalid = (i * 5) % 13 == 2;
    const double cost = invalid ? kInf : (x - 20) * (x - 20) + y;
    eager.add({x, y}, cost, invalid);
    deferred.add({x, y}, cost, invalid);
    eager.fit_pending();
    if (i % 7 != 6 || !deferred.ready()) {
      continue;
    }
    deferred.fit_pending();
    for (int p = 0; p < 20; ++p) {
      const feature_vector probe{static_cast<double>(p * 3),
                                 static_cast<double>(p % 7)};
      ASSERT_EQ(eager.score(probe), deferred.score(probe)) << "sample " << i;
    }
  }
  EXPECT_EQ(eager.refits(), deferred.refits());
  EXPECT_EQ(eager.fits(), eager.refits());
  EXPECT_LT(deferred.fits(), deferred.refits());
  EXPECT_EQ(eager.samples(), 30u);
  EXPECT_EQ(deferred.samples(), 30u);
  EXPECT_EQ(eager.valid_samples(), deferred.valid_samples());
}

TEST(SurrogateSearch, FixedSeedRerunIsBitIdentical) {
  auto run = [] {
    auto t = make_rugged_tuner();
    t.search_technique(std::make_unique<surrogate_search>(1234));
    t.abort_condition(atf::cond::evaluations(300));
    std::vector<double> costs;
    const auto result = t.tune([&](const atf::configuration& config) {
      const double c = rugged_cost(config);
      costs.push_back(c);
      return c;
    });
    return std::make_pair(costs, result.best_configuration().to_string());
  };
  const auto a = run();
  const auto b = run();
  // The full measured-cost stream is identical, not just the final best —
  // every proposal decision replayed bit-for-bit.
  EXPECT_EQ(a.first, b.first);
  EXPECT_EQ(a.second, b.second);
}

TEST(SurrogateSearch, BatchedAtOneEqualsSequential) {
  auto t = make_rugged_tuner();
  const atf::search_space& space = t.space();

  surrogate_search sequential(7);
  surrogate_search batched(7);
  sequential.initialize(space);
  batched.initialize(space);
  for (int i = 0; i < 200; ++i) {
    const atf::configuration a = sequential.get_next_config();
    const std::vector<atf::configuration> b = batched.propose_batch(1);
    ASSERT_EQ(b.size(), 1u);
    ASSERT_EQ(a.to_string(), b.front().to_string());
    const double cost = rugged_cost(a);
    sequential.report_cost(cost);
    batched.report_batch(b, {cost});
  }
}

TEST(SurrogateSearch, ConvergesBetterThanWideMiss) {
  auto t = make_rugged_tuner();
  t.search_technique(std::make_unique<surrogate_search>(99));
  t.abort_condition(atf::cond::evaluations(400));
  const auto result = t.tune(rugged_cost);
  EXPECT_LT(*result.best_cost, 100.0);
}

TEST(SurrogateSearch, SurvivesAllInvalidLandscape) {
  // Every evaluation fails: the model never becomes ready, the technique
  // keeps proposing random exploration, and nothing crashes.
  auto t = make_rugged_tuner();
  auto technique = std::make_unique<surrogate_search>(11);
  surrogate_search* raw = technique.get();
  t.search_technique(std::move(technique));
  t.abort_condition(atf::cond::evaluations(100));
  const auto result = t.tune([](const atf::configuration&) { return kInf; });
  EXPECT_EQ(result.evaluations, 100u);
  EXPECT_FALSE(raw->model_ready());
  EXPECT_EQ(raw->invalid_training_samples(), raw->training_samples());
}

TEST(SurrogateSearch, AvoidsReMeasuringWhileFreshPointsExist) {
  // 4096-point space, 64 evaluations: with the measured-set filter no
  // configuration should be proposed twice.
  auto t = make_rugged_tuner();
  auto technique = std::make_unique<surrogate_search>(21);
  t.search_technique(std::move(technique));
  t.abort_condition(atf::cond::evaluations(64));
  std::set<std::string> seen;
  std::size_t calls = 0;
  (void)t.tune([&](const atf::configuration& config) {
    seen.insert(config.to_string());
    ++calls;
    return rugged_cost(config);
  });
  EXPECT_EQ(seen.size(), calls);
}

TEST(SurrogateSearch, ExhaustedSpaceFallsBackToRepeats) {
  // A 4-point space with a 100-evaluation budget must not stall once every
  // configuration was measured.
  auto x = atf::tp("x", atf::interval<int>(0, 3));
  atf::tuner t;
  t.tuning_parameters(x);
  t.search_technique(std::make_unique<surrogate_search>(13));
  t.abort_condition(atf::cond::evaluations(100));
  const auto result = t.tune([](const atf::configuration& config) {
    return static_cast<double>(static_cast<int>(config["x"]));
  });
  EXPECT_EQ(result.evaluations, 100u);
  EXPECT_EQ(*result.best_cost, 0.0);
}

// Work counters, the CI gate for the surrogate's cost: deterministic
// counts rather than timings.
TEST(SurrogateWork, ResumingA200RecordJournalBuildsOneFit) {
  const std::string path =
      ::testing::TempDir() + "atf_surrogate_work_resume.jsonl";
  std::remove(path.c_str());
  {
    auto t = make_rugged_tuner();
    t.search_technique(std::make_unique<atf::search::random_search>(8));
    t.abort_condition(atf::cond::evaluations(200));
    (void)t.session(path).tune(rugged_cost);
  }
  const auto report = atf::session::read_journal(path);
  std::remove(path.c_str());
  ASSERT_EQ(report.records.size(), 200u);
  const auto store = atf::session::result_store::from_report(report);
  // Random search revisits a few of the 4096 points; the warm start trains
  // on the latest record per configuration.
  const std::size_t distinct = store.latest_records().size();
  ASSERT_GE(distinct, 192u);

  auto t = make_rugged_tuner();
  surrogate_search technique(5);
  technique.initialize(t.space());
  technique.warm_start(store);
  // Twelve refits fell due during the warm start (at 16, 32, ..., 192
  // samples, all valid); none was built.
  EXPECT_EQ(technique.refits(), 12u);
  EXPECT_EQ(technique.trainer().fits(), 0u);
  (void)technique.get_next_config();
  EXPECT_EQ(technique.trainer().fits(), 1u);
  // The one fit is the last scheduled one, over the window it fell due on.
  EXPECT_EQ(technique.trainer().fit_samples(), 192u);
  EXPECT_EQ(technique.training_samples(), distinct);
}

TEST(SurrogateWork, Width1ProposalMaterializesOnlyWhatItWalks) {
  auto t = make_rugged_tuner();
  surrogate_search technique(17);
  technique.initialize(t.space());
  std::uint64_t scored_proposals = 0;
  for (int i = 0; i < 200; ++i) {
    const std::uint64_t materialized = technique.materialized();
    const std::uint64_t skipped = technique.skipped();
    const std::uint64_t scored = technique.scored();
    const atf::configuration config = technique.get_next_config();
    const std::uint64_t made = technique.materialized() - materialized;
    EXPECT_GE(made, 1u);
    EXPECT_LE(made, 1 + (technique.skipped() - skipped)) << "proposal " << i;
    if (technique.scored() > scored) {
      ++scored_proposals;
      EXPECT_EQ(technique.scored() - scored, 256u);
      EXPECT_LT(made, 256u);
    }
    technique.report_cost(rugged_cost(config));
  }
  EXPECT_GT(scored_proposals, 150u);
  // Materializing is the exception once the model scores: far fewer
  // configurations than scored candidates.
  EXPECT_LT(technique.materialized() * 20, technique.scored());
}

/// A three-level constrained group (A, B dividing A, C dividing B) beside
/// an unconstrained one, so decoding scans siblings; a failure stripe gives
/// the classifier head work.
std::vector<atf::tp_group> make_chain_groups() {
  auto a = atf::tp("A", atf::interval<std::size_t>(1, 48));
  auto b = atf::tp("B", atf::interval<std::size_t>(1, 48), atf::divides(a));
  auto c = atf::tp("C", atf::interval<std::size_t>(1, 16), atf::divides(b));
  auto d = atf::tp("D", atf::interval<int>(0, 9));
  return {atf::G(a, b, c), atf::G(d)};
}

double chain_cost(const atf::configuration& config) {
  const std::size_t a = config["A"];
  const std::size_t b = config["B"];
  const std::size_t c = config["C"];
  const int d = config["D"];
  if ((a + c) % 9 == 4) {
    return kInf;
  }
  const double x = static_cast<double>(a) - 30.0;
  return x * x + 40.0 / static_cast<double>(b) + c + (d - 6) * (d - 6);
}

struct work_counters {
  std::uint64_t scored = 0;
  std::uint64_t tree_steps = 0;
  std::uint64_t sibling_steps = 0;
  std::uint64_t materialized = 0;
  std::uint64_t stream = 0;  ///< fold of the proposed hashes

  bool operator==(const work_counters&) const = default;
};

work_counters run_chain(const atf::search_space& space) {
  surrogate_search technique(23);
  technique.initialize(space);
  work_counters out;
  for (int i = 0; i < 120; ++i) {
    const atf::configuration config = technique.get_next_config();
    out.stream = (out.stream ^ config.hash()) * 0x9e3779b97f4a7c15ull;
    technique.report_cost(chain_cost(config));
  }
  out.scored = technique.scored();
  out.tree_steps = technique.tree_steps();
  out.sibling_steps = technique.decode_sibling_steps();
  out.materialized = technique.materialized();
  return out;
}

TEST(SurrogateWork, TreeAndDecodeStepsArePinned) {
  const auto groups = make_chain_groups();
  const work_counters dag = run_chain(
      atf::search_space::generate(groups, atf::generation_mode::intra_group));
  // Pinned for seed 23: a change to the forest walk's length, the pool size
  // or the decode walk moves these.
  EXPECT_EQ(dag.scored, 26112u);  // 102 scored proposals x 256
  EXPECT_EQ(dag.tree_steps, 5632000u);
  EXPECT_EQ(dag.sibling_steps, 85452u);
  EXPECT_EQ(dag.materialized, 146u);
  // The proposal stream the per-candidate scoring loop produced.
  EXPECT_EQ(dag.stream, 0x472454b8bc6d0f4aull);
  // The decode walk's work is a property of the tree, not of how it is
  // stored: the plain loop's CSR levels take the same steps.
  EXPECT_EQ(run_chain(atf::detail::generate_plain(
                groups, atf::generation_mode::intra_group)),
            dag);
}

class SurrogateWarmStartTest : public ::testing::Test {
protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "atf_surrogate_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".jsonl";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(SurrogateWarmStartTest, JournalEqualsInMemoryStore) {
  // Seed a journal with a random-search run.
  {
    auto t = make_rugged_tuner();
    t.search_technique(std::make_unique<atf::search::random_search>(5));
    t.abort_condition(atf::cond::evaluations(120));
    (void)t.session(path_).tune(rugged_cost);
  }

  // Store A: replayed from the journal file. Store B: the same records
  // inserted in-memory, no file involved.
  const auto report = atf::session::read_journal(path_);
  ASSERT_EQ(report.records.size(), 120u);
  const auto from_journal = atf::session::result_store::from_report(report);
  atf::session::result_store in_memory;
  for (const auto& record : report.records) {
    in_memory.insert(record);
  }

  auto t = make_rugged_tuner();
  const atf::search_space& space = t.space();
  surrogate_search a(77);
  surrogate_search b(77);
  a.initialize(space);
  b.initialize(space);
  a.warm_start(from_journal);
  b.warm_start(in_memory);
  EXPECT_EQ(a.training_samples(), b.training_samples());
  EXPECT_TRUE(a.model_ready());
  EXPECT_TRUE(b.model_ready());

  // Identical warm-start state drives identical proposal streams.
  for (int i = 0; i < 100; ++i) {
    const atf::configuration ca = a.get_next_config();
    const atf::configuration cb = b.get_next_config();
    ASSERT_EQ(ca.to_string(), cb.to_string());
    const double cost = rugged_cost(ca);
    a.report_cost(cost);
    b.report_cost(cost);
  }
}

TEST_F(SurrogateWarmStartTest, TunerWiresTheStoreIntoTheTechnique) {
  {
    auto t = make_rugged_tuner();
    t.search_technique(std::make_unique<atf::search::random_search>(5));
    t.abort_condition(atf::cond::evaluations(80));
    (void)t.session(path_).tune(rugged_cost);
  }
  auto t = make_rugged_tuner();
  auto technique = std::make_unique<surrogate_search>(31);
  surrogate_search* raw = technique.get();
  t.search_technique(std::move(technique));
  t.abort_condition(atf::cond::evaluations(81));
  (void)t.session(path_).tune(rugged_cost);
  // The 80 journal records warm-started the model before any proposal.
  EXPECT_GE(raw->training_samples(), 80u);
  EXPECT_TRUE(raw->model_ready());
}

TEST_F(SurrogateWarmStartTest, EmptyStoreIsANoOp) {
  auto t = make_rugged_tuner();
  surrogate_search technique(3);
  technique.initialize(t.space());
  atf::session::result_store empty;
  technique.warm_start(empty);
  EXPECT_EQ(technique.training_samples(), 0u);
  EXPECT_FALSE(technique.model_ready());
  (void)technique.get_next_config();  // still proposes
}

TEST(ResultStore, LatestRecordsDropsSupersededDuplicates) {
  atf::session::result_store store;
  atf::configuration c1;
  c1.add("x", 1);
  atf::configuration c2;
  c2.add("x", 2);
  auto r1 = atf::session::tuning_record::from_configuration(c1);
  r1.scalar = 10.0;
  auto r2 = atf::session::tuning_record::from_configuration(c2);
  r2.scalar = 20.0;
  auto r1b = atf::session::tuning_record::from_configuration(c1);
  r1b.scalar = 5.0;  // supersedes r1
  store.insert(r1);
  store.insert(r2);
  store.insert(r1b);
  ASSERT_EQ(store.records().size(), 3u);
  const auto latest = store.latest_records();
  ASSERT_EQ(latest.size(), 2u);
  EXPECT_EQ(latest[0].config_hash, r2.config_hash);
  EXPECT_EQ(latest[0].scalar, 20.0);
  EXPECT_EQ(latest[1].config_hash, r1b.config_hash);
  EXPECT_EQ(latest[1].scalar, 5.0);
}

TEST(SurrogateArm, ExplicitBoundedMaxBatch) {
  atf::search::surrogate_arm arm;
  EXPECT_EQ(arm.max_batch(), 8u);
  atf::search::numeric_domain domain({64, 64});
  arm.initialize(domain, 9);
  const auto batch = arm.propose_points(100);
  EXPECT_EQ(batch.size(), 8u);  // clamped to the cap
  std::vector<double> costs(batch.size(), 1.0);
  arm.report_points(costs);
}

TEST(SurrogateArm, FixedSeedRerunIsBitIdentical) {
  auto run = [] {
    atf::search::surrogate_arm arm;
    atf::search::numeric_domain domain({64, 64});
    arm.initialize(domain, 123);
    std::vector<atf::search::point> stream;
    for (int i = 0; i < 120; ++i) {
      const atf::search::point p = arm.next_point();
      stream.push_back(p);
      const double d0 = static_cast<double>(p[0]) - 20.0;
      const double d1 = static_cast<double>(p[1]) - 40.0;
      arm.report(d0 * d0 + d1 * d1);
    }
    return stream;
  };
  EXPECT_EQ(run(), run());
}

}  // namespace
