// Golden pins for surrogate-guided search: proposal configuration::hash()
// streams and forest prediction bit patterns, recorded once and never
// edited. The FixedSeedRerunIsBitIdentical tests compare a build with
// itself; these compare it with the streams the original implementation
// produced, so a change to the forest fit, the refit schedule or the
// candidate scoring that alters a single proposal or a single predicted bit
// fails here (DESIGN.md §10).
//
// Every stream is folded into one 64-bit digest (order-sensitive) and pinned
// together with its length and its first hash, which localizes a mismatch to
// "the whole stream moved" or "a later proposal diverged".
#include <gtest/gtest.h>

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
                0xf0ca8e3d43f78603ull);
}

TEST_F(SurrogateGolden, FreshConv2dWidth8) {
  const conv2d_k20m workload;
  atf::tuner t;
  t.tuning_parameters(workload.groups());
  surrogate_search technique(1234);
  technique.initialize(t.space());
  const digest d = drive(technique, workload, 8, 160);
  expect_pinned(d, 160, 0x68695f93e4196918ull,
                0xd6a65a33d610fcc0ull);
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
  expect_pinned(d, 100, 0xd4f44dcf9780c496ull,
                0x8c99a24b7822f087ull);
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
  expect_pinned(d, 100, 0xd4f44dcf9780c496ull,
                0xdf2010a114a0bc8aull);
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
                0xcc1f975c1cba62c1ull);
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
                0x4a454b316d16fc58ull);
}

TEST_F(SurrogateGolden, OpentunerStreamWidth8) {
  expect_pinned(opentuner_stream(8), 300, 0x759727ff1bd3ae6eull,
                0x2d3c82b5277691c8ull);
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
  expect_pinned(predict_bits(model), 128, 0x401a6308ffcafb6full,
                0x594c2a0a6325e5b0ull);
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
  expect_pinned(predict_bits(model), 128, 0x401a6514c092f1bfull,
                0x4d6e4d35fc783c45ull);
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
  expect_pinned(predict_bits(model), 128, 0x3f76c16c16c16c17ull,
                0x4f3055fc18176fa5ull);
}

}  // namespace
