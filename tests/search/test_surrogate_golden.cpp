// Golden pins for surrogate-guided search: proposal configuration::hash()
// streams and forest prediction bit patterns. They were recorded once and
// re-recorded once, when every tree got its own random stream and the split
// search became a histogram scan. The FixedSeedRerunIsBitIdentical tests
// compare a build with itself; these compare it with the recorded streams,
// so a change to the forest fit, the refit schedule or the candidate
// scoring that alters a single proposal or a single predicted bit fails
// here (DESIGN.md §10). The SurrogateForest tests below pin the forest's
// own contract: the same forest for any worker count, tree t independent
// of the forest's size, and every split equal to an exhaustive search.
//
// Every stream is folded into one 64-bit digest (order-sensitive) and pinned
// together with its length and its first hash, which localizes a mismatch to
// "the whole stream moved" or "a later proposal diverged".
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <vector>

#include "atf/atf.hpp"
#include "atf/common/rng.hpp"
#include "atf/kernels/registry.hpp"
#include "atf/search/opentuner_search.hpp"
#include "atf/search/random_search.hpp"
#include "atf/search/surrogate_model.hpp"
#include "atf/search/surrogate_search.hpp"
#include "atf/session/journal.hpp"
#include "atf/session/result_store.hpp"
#include "ocls/device.hpp"

namespace {

namespace reg = atf::kernels::registry;
using atf::search::feature_vector;
using atf::search::surrogate_model;
using atf::search::surrogate_search;

constexpr double kInf = std::numeric_limits<double>::infinity();

/// Order-sensitive 64-bit fold of a value stream.
struct digest {
  std::uint64_t value = 0x243f6a8885a308d3ull;
  std::uint64_t count = 0;
  std::uint64_t first = 0;

  void add(std::uint64_t v) {
    if (count == 0) {
      first = v;
    }
    ++count;
    value = (value ^ v) * 0x9e3779b97f4a7c15ull;
    value ^= value >> 29;
  }
  void add(double d) { add(std::bit_cast<std::uint64_t>(d)); }
};

void expect_pinned(const digest& d, std::uint64_t count, std::uint64_t first,
                   std::uint64_t value) {
  EXPECT_EQ(d.count, count);
  EXPECT_EQ(d.first, first) << std::hex << "first 0x" << d.first;
  EXPECT_EQ(d.value, value) << std::hex << "digest 0x" << d.value;
}

/// conv2d 64x64x5x5 on the simulated K20m: the registry's groups and
/// analytic cost, plus a deterministic failure stripe (every configuration
/// whose hash is 3 mod 11 fails) so the classifier head always has work.
struct conv2d_k20m {
  reg::input_size size = reg::input_size::parse("64x64x5x5");
  ocls::device gpu = ocls::find_device("NVIDIA", "K20m");
  const reg::entry* family = reg::find("conv2d");
  std::function<double(const atf::configuration&)> model =
      family->make_cost(size, gpu);

  [[nodiscard]] std::vector<atf::tp_group> groups() const {
    return family->make_groups(size, gpu.profile());
  }

  [[nodiscard]] bool fails(const atf::configuration& config) const {
    return config.hash() % 11 == 3;
  }

  /// Cost as the techniques see it: +infinity for a failure.
  [[nodiscard]] double cost(const atf::configuration& config) const {
    if (fails(config)) {
      return kInf;
    }
    try {
      return model(config);
    } catch (const std::exception&) {
      return kInf;
    }
  }
};

/// Drives a technique through propose_batch/report_batch at `width` until
/// `evaluations` costs were reported, folding every proposed hash.
digest drive(atf::search_technique& technique, const conv2d_k20m& workload,
             std::size_t width, std::size_t evaluations) {
  digest d;
  std::size_t reported = 0;
  while (reported < evaluations) {
    const std::vector<atf::configuration> batch =
        technique.propose_batch(std::min(width, evaluations - reported));
    std::vector<double> costs;
    costs.reserve(batch.size());
    for (const atf::configuration& config : batch) {
      d.add(config.hash());
      costs.push_back(workload.cost(config));
    }
    technique.report_batch(batch, costs);
    reported += batch.size();
  }
  return d;
}

class SurrogateGolden : public ::testing::Test {
protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "atf_surrogate_golden_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name() +
            ".jsonl";
    std::remove(path_.c_str());
  }
  void TearDown() override { std::remove(path_.c_str()); }

  /// A 200-record journal of a random-search run over the conv2d space in
  /// which every stripe configuration failed (recorded invalid).
  atf::session::result_store journal_store(const conv2d_k20m& workload) {
    {
      atf::tuner t;
      t.tuning_parameters(workload.groups());
      t.search_technique(std::make_unique<atf::search::random_search>(5));
      t.abort_condition(atf::cond::evaluations(200));
      (void)t.session(path_).tune([&](const atf::configuration& config) {
        if (workload.fails(config)) {
          throw atf::evaluation_error("stripe");
        }
        return workload.cost(config);
      });
    }
    const auto report = atf::session::read_journal(path_);
    EXPECT_EQ(report.records.size(), 200u);
    std::size_t invalid = 0;
    for (const auto& record : report.records) {
      invalid += record.valid ? 0 : 1;
    }
    EXPECT_GT(invalid, 0u);
    return atf::session::result_store::from_report(report);
  }

  std::string path_;
};

TEST_F(SurrogateGolden, FreshConv2dWidth1) {
  const conv2d_k20m workload;
  atf::tuner t;
  t.tuning_parameters(workload.groups());
  surrogate_search technique(1234);
  technique.initialize(t.space());
  const digest d = drive(technique, workload, 1, 160);
  expect_pinned(d, 160, 0x68695f93e4196918ull,
                0x0752f5ab0fdf34c7ull);
}

TEST_F(SurrogateGolden, FreshConv2dWidth8) {
  const conv2d_k20m workload;
  atf::tuner t;
  t.tuning_parameters(workload.groups());
  surrogate_search technique(1234);
  technique.initialize(t.space());
  const digest d = drive(technique, workload, 8, 160);
  expect_pinned(d, 160, 0x68695f93e4196918ull,
                0x9338eb9a5fda3e32ull);
}

TEST_F(SurrogateGolden, WarmStartedConv2dWidth1) {
  const conv2d_k20m workload;
  const atf::session::result_store store = journal_store(workload);
  atf::tuner t;
  t.tuning_parameters(workload.groups());
  surrogate_search technique(77);
  technique.initialize(t.space());
  technique.warm_start(store);
  EXPECT_TRUE(technique.model_ready());
  EXPECT_GT(technique.invalid_training_samples(), 0u);
  const digest d = drive(technique, workload, 1, 100);
  expect_pinned(d, 100, 0xaa622da8847cec59ull,
                0x5dfdf8666174ce72ull);
}

TEST_F(SurrogateGolden, WarmStartedConv2dWidth8) {
  const conv2d_k20m workload;
  const atf::session::result_store store = journal_store(workload);
  atf::tuner t;
  t.tuning_parameters(workload.groups());
  surrogate_search technique(77);
  technique.initialize(t.space());
  technique.warm_start(store);
  const digest d = drive(technique, workload, 8, 100);
  expect_pinned(d, 100, 0xaa622da8847cec59ull,
                0xd00a38dedcc102e9ull);
}

TEST_F(SurrogateGolden, SlidingWindowWhileRefitsAreDue) {
  // max_train 40 with a refit due every 4 samples and 6 samples reported
  // per batch: most batches schedule a refit and then slide the window by
  // more samples before the next proposal scores anything, and some
  // batches schedule two refits back to back.
  const conv2d_k20m workload;
  atf::tuner t;
  t.tuning_parameters(workload.groups());
  surrogate_search::options opts;
  opts.trainer.min_train = 8;
  opts.trainer.refit_interval = 4;
  opts.trainer.max_train = 40;
  surrogate_search technique(opts, 99);
  technique.initialize(t.space());
  const digest d = drive(technique, workload, 6, 180);
  expect_pinned(d, 180, 0xad5cb428aa878bf4ull,
                0x1c1d146d6f91e93cull);
}

/// opentuner_search's ensemble holds surrogate_arm; the stream pins the
/// arm's proposals together with every other member's.
digest opentuner_stream(std::size_t width) {
  const conv2d_k20m workload;
  atf::tuner t;
  t.tuning_parameters(workload.groups());
  atf::search::opentuner_search technique(2030);
  technique.initialize(t.space());
  const digest d = drive(technique, workload, width, 300);
  const auto& engine = technique.engine();
  std::uint64_t arm_uses = 0;
  for (std::size_t i = 0; i < engine.pool_size(); ++i) {
    if (engine.technique_name(i) == "surrogate") {
      arm_uses = engine.technique_uses()[i];
    }
  }
  // Enough arm proposals for its model (min_train 12) to be fit and used.
  EXPECT_GE(arm_uses, 30u);
  return d;
}

TEST_F(SurrogateGolden, OpentunerStreamWidth1) {
  expect_pinned(opentuner_stream(1), 300, 0x759727ff1bd3ae6eull,
                0x2d051fcbd5763ac2ull);
}

TEST_F(SurrogateGolden, OpentunerStreamWidth8) {
  expect_pinned(opentuner_stream(8), 300, 0x759727ff1bd3ae6eull,
                0x8abfee0943e337d9ull);
}

/// Fixed training data with heavy ties: integer features with few distinct
/// values, a monotone copy of one of them and a constant column, so split
/// selection depends on the tie order inside each feature.
void fixed_data(std::vector<feature_vector>& features,
                std::vector<double>& targets) {
  for (int i = 0; i < 150; ++i) {
    const double a = static_cast<double>(i % 7);
    const double b = static_cast<double>((i * 5) % 11);
    const double c = static_cast<double>(i / 13);
    features.push_back({a, std::asinh(a), b, c, 3.0});
    targets.push_back(std::asinh((a - 3.0) * (a - 3.0) * 40.0 + b * 7.0 +
                                 static_cast<double>((i * 37) % 17)));
  }
}

digest predict_bits(const surrogate_model& model) {
  digest d;
  for (int p = 0; p < 64; ++p) {
    const double a = static_cast<double>(p % 8) - 0.5;
    const double b = static_cast<double>((p * 3) % 12);
    const double c = static_cast<double>(p % 13);
    const auto out = model.predict({a, std::asinh(a), b, c, 3.0});
    d.add(out.mean);
    d.add(out.stddev);
  }
  return d;
}

TEST(SurrogateModelGolden, DefaultForestPredictions) {
  std::vector<feature_vector> features;
  std::vector<double> targets;
  fixed_data(features, targets);
  surrogate_model model;
  model.fit(features, targets, 42);
  expect_pinned(predict_bits(model), 128, 0x401a66feaeaa393dull,
                0x54e88d715c324499ull);
}

TEST(SurrogateModelGolden, ArmSizedForestPredictions) {
  std::vector<feature_vector> features;
  std::vector<double> targets;
  fixed_data(features, targets);
  surrogate_model::options opts;
  opts.trees = 12;
  opts.max_depth = 5;
  surrogate_model model(opts);
  model.fit(features, targets, 7);
  expect_pinned(predict_bits(model), 128, 0x401a731f4f5637c0ull,
                0x6798c2085a9c12b4ull);
}

TEST(SurrogateModelGolden, ClassifierHeadPredictions) {
  // 0/1 labels, the invalid head's target shape.
  std::vector<feature_vector> features;
  std::vector<double> targets;
  fixed_data(features, targets);
  for (std::size_t i = 0; i < targets.size(); ++i) {
    targets[i] = (i * 7) % 5 == 1 ? 1.0 : 0.0;
  }
  surrogate_model model;
  model.fit(features, targets, 0xa5a5a5a5a5a5a5a5ull);
  expect_pinned(predict_bits(model), 128, 0x3f8745d1745d1745ull,
                0xb14cf0165642ffd9ull);
}

// ------------------------------------------------------- forest contract
// The forest is a pure function of (data, seed, options): tree t grows
// from its own stream (detail::tree_seed), the trees are grown in parallel
// and concatenated in tree order, and a node's split search is a histogram
// scan that must equal an exhaustive search.

using forest = surrogate_model::flat_forest;

void expect_same_forest(const forest& a, const forest& b) {
  EXPECT_EQ(a.width, b.width);
  EXPECT_EQ(a.feature, b.feature);
  ASSERT_EQ(a.threshold.size(), b.threshold.size());
  for (std::size_t k = 0; k < a.threshold.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.threshold[k]),
              std::bit_cast<std::uint64_t>(b.threshold[k]))
        << "node " << k;
  }
  EXPECT_EQ(a.child, b.child);
  ASSERT_EQ(a.value.size(), b.value.size());
  for (std::size_t k = 0; k < a.value.size(); ++k) {
    EXPECT_EQ(std::bit_cast<std::uint64_t>(a.value[k]),
              std::bit_cast<std::uint64_t>(b.value[k]))
        << "node " << k;
  }
  EXPECT_EQ(a.root, b.root);
  EXPECT_EQ(a.depth, b.depth);
}

/// Tree t of `f` as a forest of its own, node ids shifted to start at 0.
forest tree_of(const forest& f, std::size_t t) {
  const auto begin = static_cast<std::size_t>(f.root[t]);
  const std::size_t end = t + 1 < f.root.size()
                              ? static_cast<std::size_t>(f.root[t + 1])
                              : f.value.size();
  const auto shift = static_cast<std::int32_t>(begin);
  forest one;
  one.width = f.width;
  for (std::size_t k = begin; k < end; ++k) {
    one.feature.push_back(f.feature[k]);
    one.threshold.push_back(f.threshold[k]);
    one.child.push_back({f.child[k][0] - shift, f.child[k][1] - shift});
    one.value.push_back(f.value[k]);
  }
  one.root.push_back(0);
  one.depth.push_back(f.depth[t]);
  return one;
}

TEST(SurrogateForest, OneWorkerAndManyWorkersGrowTheSameForests) {
  // Both heads' shapes in one batch, as surrogate_trainer::fit_pending
  // grows them.
  std::vector<feature_vector> features;
  std::vector<double> costs;
  fixed_data(features, costs);
  std::vector<double> labels;
  for (std::size_t i = 0; i < costs.size(); ++i) {
    labels.push_back((i * 7) % 5 == 1 ? 1.0 : 0.0);
  }
  const auto fit_with = [&](std::size_t workers) {
    std::vector<surrogate_model> models(2);
    atf::search::detail::fit_forests(
        {{&models[0], &features, &costs, 42},
         {&models[1], &features, &labels, 43}},
        workers);
    return models;
  };
  const std::vector<surrogate_model> one = fit_with(1);
  for (const std::size_t workers : {2u, 4u, 8u}) {
    SCOPED_TRACE(workers);
    const std::vector<surrogate_model> many = fit_with(workers);
    expect_same_forest(one[0].forest(), many[0].forest());
    expect_same_forest(one[1].forest(), many[1].forest());
  }
  // And fit() is the same batch of one.
  surrogate_model single;
  single.fit(features, costs, 42);
  expect_same_forest(one[0].forest(), single.forest());
}

TEST(SurrogateForest, TreeTIsTheSameInEveryLargerForest) {
  std::vector<feature_vector> features;
  std::vector<double> targets;
  fixed_data(features, targets);
  surrogate_model full;
  full.fit(features, targets, 42);
  ASSERT_EQ(full.forest().root.size(), 24u);
  for (std::size_t t = 0; t < 24; ++t) {
    SCOPED_TRACE(t);
    surrogate_model::options opts;
    opts.trees = t + 1;
    surrogate_model prefix(opts);
    prefix.fit(features, targets, 42);
    expect_same_forest(tree_of(prefix.forest(), t), tree_of(full.forest(), t));
  }
}

/// The forest grown by the documented algorithm with an exhaustive split
/// search: every threshold between two distinct values of a node's samples
/// is tried and its side sums are recounted over all the node's samples,
/// O(samples²) per feature.
class reference_forest {
public:
  reference_forest(const std::vector<feature_vector>& x,
                   const std::vector<double>& y,
                   const surrogate_model::options& opts, std::uint64_t seed)
      : x_(x), y_(y), opts_(opts) {
    forest_.width = x.front().size();
    for (std::size_t t = 0; t < opts.trees; ++t) {
      rng_ = atf::common::xoshiro256(atf::search::detail::tree_seed(seed, t));
      std::vector<std::uint32_t> samples(x.size());
      for (std::uint32_t& s : samples) {
        s = static_cast<std::uint32_t>(rng_.below(x.size()));
      }
      deepest_ = 0;
      forest_.root.push_back(build(samples, 0));
      forest_.depth.push_back(static_cast<std::uint32_t>(deepest_));
    }
  }

  [[nodiscard]] const forest& get() const { return forest_; }

private:
  std::int32_t push(std::int32_t feature, double threshold, double value) {
    const auto self = static_cast<std::int32_t>(forest_.value.size());
    forest_.feature.push_back(feature);
    forest_.threshold.push_back(threshold);
    forest_.child.push_back({self, self});
    forest_.value.push_back(value);
    return self;
  }

  std::int32_t build(const std::vector<std::uint32_t>& samples,
                     std::size_t depth) {
    const std::size_t count = samples.size();
    double sum = 0.0;
    double sum_sq = 0.0;
    for (const std::uint32_t s : samples) {
      sum += y_[s];
      sum_sq += y_[s] * y_[s];
    }
    const double n = static_cast<double>(count);
    const double sse =
        count == 0 ? 0.0 : std::max(0.0, sum_sq - sum * sum / n);
    const double mean = count == 0 ? 0.0 : sum / n;
    const std::size_t width = forest_.width;
    const auto leaf = [&] {
      deepest_ = std::max(deepest_, depth);
      return push(0, 0.0, mean);
    };
    if (depth >= opts_.max_depth || count < 2 * opts_.min_leaf ||
        sse == 0.0 || width == 0) {
      return leaf();
    }

    std::vector<std::size_t> order(width);
    for (std::size_t f = 0; f < width; ++f) {
      order[f] = f;
    }
    const std::size_t tries = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::ceil(opts_.feature_fraction *
                                              static_cast<double>(width))));
    for (std::size_t i = 0; i < tries && i + 1 < width; ++i) {
      std::swap(order[i], order[i + rng_.below(width - i)]);
    }

    const auto min_leaf = static_cast<double>(opts_.min_leaf);
    double best_sse = std::numeric_limits<double>::infinity();
    std::size_t best_feature = 0;
    double best_threshold = 0.0;
    for (std::size_t t = 0; t < std::min(tries, width); ++t) {
      const std::size_t f = order[t];
      std::vector<double> values;
      for (const std::uint32_t s : samples) {
        values.push_back(x_[s][f]);
      }
      std::sort(values.begin(), values.end());
      values.erase(std::unique(values.begin(), values.end()), values.end());
      for (std::size_t k = 0; k + 1 < values.size(); ++k) {
        double left = 0.0;
        double right = 0.0;
        double left_n = 0.0;
        double right_n = 0.0;
        for (const std::uint32_t s : samples) {
          if (x_[s][f] <= values[k]) {
            left += y_[s];
            left_n += 1.0;
          } else {
            right += y_[s];
            right_n += 1.0;
          }
        }
        if (left_n < min_leaf || right_n < min_leaf) {
          continue;
        }
        const double split = std::max(
            0.0, sum_sq - (left * left * right_n + right * right * left_n) /
                              (left_n * right_n));
        if (split < best_sse) {
          best_sse = split;
          best_feature = f;
          best_threshold = values[k] + (values[k + 1] - values[k]) / 2.0;
        }
      }
    }
    if (!std::isfinite(best_sse) || best_sse >= sse) {
      return leaf();
    }

    std::vector<std::uint32_t> left;
    std::vector<std::uint32_t> right;
    for (const std::uint32_t s : samples) {
      (x_[s][best_feature] <= best_threshold ? left : right).push_back(s);
    }
    const std::int32_t self =
        push(static_cast<std::int32_t>(best_feature), best_threshold, 0.0);
    const std::int32_t l = build(left, depth + 1);
    const std::int32_t r = build(right, depth + 1);
    forest_.child[static_cast<std::size_t>(self)] = {l, r};
    return self;
  }

  const std::vector<feature_vector>& x_;
  const std::vector<double>& y_;
  surrogate_model::options opts_;
  atf::common::xoshiro256 rng_;
  std::size_t deepest_ = 0;
  forest forest_;
};

TEST(SurrogateForest, EverySplitMatchesAnExhaustiveSearch) {
  // Integer targets keep every sum exact, so both searches see the same
  // sums whatever order they add in. Features: few distinct values (ties
  // inside a feature), a monotone copy (ties across features), many
  // distinct values, and a constant column.
  atf::common::xoshiro256 rng(2024);
  for (int round = 0; round < 6; ++round) {
    SCOPED_TRACE(round);
    const std::size_t n = 40 + 30 * static_cast<std::size_t>(round);
    std::vector<feature_vector> x;
    std::vector<double> y;
    for (std::size_t i = 0; i < n; ++i) {
      const double a = static_cast<double>(rng.below(5));
      const double b = static_cast<double>(rng.below(60));
      x.push_back({a, 2.0 * a + 1.0, b, static_cast<double>(rng.below(3)),
                   7.0});
      y.push_back(static_cast<double>(rng.below(40)) + (a == 2.0 ? 60.0 : 0.0));
    }
    surrogate_model::options opts;
    opts.min_leaf = static_cast<std::size_t>(round % 4);
    opts.feature_fraction = round % 2 == 0 ? 0.7 : 1.0;
    opts.max_depth = 4 + static_cast<std::size_t>(round % 3);
    opts.trees = 6;
    const std::uint64_t seed = 100 + static_cast<std::uint64_t>(round);
    surrogate_model model(opts);
    model.fit(x, y, seed);
    expect_same_forest(model.forest(),
                       reference_forest(x, y, opts, seed).get());
  }
}

}  // namespace
