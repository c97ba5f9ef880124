// Tests for the blasmini downstream layer: the tuning database (store /
// lookup / persistence round-trip) and the auto-tuned GEMM executor
// (correct results, default fallback, tuned-beats-defaults, database
// consumption).
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "atf/kernels/reference.hpp"
#include "blasmini/gemm.hpp"
#include "blasmini/tuning_db.hpp"

namespace {

namespace xg = atf::kernels::xgemm;

TEST(TuningDb, StoreAndLookup) {
  blasmini::tuning_db db;
  EXPECT_FALSE(db.lookup("dev", "kern", "8x8x8").has_value());
  db.store("dev", "kern", "8x8x8", {{"WGD", "16"}, {"PADA", "true"}});
  const auto hit = db.lookup("dev", "kern", "8x8x8");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->at("WGD"), "16");
  EXPECT_EQ(hit->at("PADA"), "true");
  // Different key dimensions miss.
  EXPECT_FALSE(db.lookup("dev2", "kern", "8x8x8").has_value());
  EXPECT_FALSE(db.lookup("dev", "kern2", "8x8x8").has_value());
  EXPECT_FALSE(db.lookup("dev", "kern", "8x8x9").has_value());
}

TEST(TuningDb, StoreOverwrites) {
  blasmini::tuning_db db;
  db.store("d", "k", "p", {{"A", "1"}});
  db.store("d", "k", "p", {{"A", "2"}});
  EXPECT_EQ(db.size(), 1u);
  EXPECT_EQ(db.lookup("d", "k", "p")->at("A"), "2");
}

TEST(TuningDb, SaveLoadRoundTrip) {
  const std::string path = ::testing::TempDir() + "blasmini_db_test.tsv";
  {
    blasmini::tuning_db db;
    db.store("Tesla K20m", "XgemmDirect", "10x500x64",
             {{"WGD", "10"}, {"KWID", "2"}, {"PADA", "false"}});
    db.store("Intel Xeon E5-2640 v2", "XgemmDirect", "20x576x25",
             {{"WGD", "8"}});
    db.save(path);
  }
  const auto db = blasmini::tuning_db::load(path);
  EXPECT_EQ(db.size(), 2u);
  const auto hit = db.lookup("Tesla K20m", "XgemmDirect", "10x500x64");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->at("WGD"), "10");
  EXPECT_EQ(hit->at("PADA"), "false");
  std::remove(path.c_str());
}

TEST(TuningDb, RoundTripsValuesWithSpacesTabsAndDelimiters) {
  // Regression: spaces and tabs inside free-form keys or values used to
  // corrupt the tab/space-delimited format on save/load. All delimiter
  // characters must now round-trip exactly (mirroring the CSV CRLF test).
  const std::string path = ::testing::TempDir() + "blasmini_db_escape.tsv";
  {
    blasmini::tuning_db db;
    db.store("NVIDIA Tesla K20m", "Xgemm Direct", "10 x 500",
             {{"FLAGS", "-cl-fast-relaxed-math -DTS=16"},
              {"NOTE", "tab\there"},
              {"EQ", "a=b"},
              {"SLASH", "back\\slash"},
              {"LINE", "two\nlines"}});
    db.save(path);
  }
  const auto db = blasmini::tuning_db::load(path);
  EXPECT_EQ(db.size(), 1u);
  const auto hit = db.lookup("NVIDIA Tesla K20m", "Xgemm Direct", "10 x 500");
  ASSERT_TRUE(hit.has_value());
  EXPECT_EQ(hit->at("FLAGS"), "-cl-fast-relaxed-math -DTS=16");
  EXPECT_EQ(hit->at("NOTE"), "tab\there");
  EXPECT_EQ(hit->at("EQ"), "a=b");
  EXPECT_EQ(hit->at("SLASH"), "back\\slash");
  EXPECT_EQ(hit->at("LINE"), "two\nlines");
  std::remove(path.c_str());
}

TEST(TuningDb, LoadMissingFileIsEmpty) {
  const auto db = blasmini::tuning_db::load("/nonexistent/path/db.tsv");
  EXPECT_EQ(db.size(), 0u);
}

TEST(GemmExecutor, ComputesCorrectResultWithDefaults) {
  const std::size_t m = 13, n = 21, k = 9;
  std::vector<float> a(m * k), b(k * n), c(m * n), expected(m * n);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>((i * 5) % 11) - 5.0f;
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<float>((i * 3) % 7) - 3.0f;
  }
  atf::kernels::reference::gemm(m, n, k, a, b, expected);

  blasmini::gemm_executor gemm(ocls::find_device("NVIDIA", "K20m"));
  const double ns = gemm.run(m, n, k, a, b, c);
  EXPECT_GT(ns, 0.0);
  for (std::size_t i = 0; i < expected.size(); ++i) {
    ASSERT_FLOAT_EQ(c[i], expected[i]) << "element " << i;
  }
}

TEST(GemmExecutor, UsesDefaultsWithoutDatabase) {
  blasmini::gemm_executor gemm(ocls::find_device("NVIDIA", "K20m"));
  const auto p = gemm.params_for(32, 32, 32);
  EXPECT_EQ(p.wgd, xg::params::defaults().wgd);
  EXPECT_EQ(p.kwid, xg::params::defaults().kwid);
}

TEST(GemmExecutor, TuneStoresIntoDatabaseAndRunConsumesIt) {
  const std::size_t m = 10, n = 500, k = 64;  // the paper's IS4
  blasmini::tuning_db db;
  blasmini::gemm_executor gemm(ocls::find_device("NVIDIA", "K20m"), &db);

  const auto tuned = gemm.tune(m, n, k, /*evaluations=*/4'000, /*seed=*/3);
  EXPECT_EQ(db.size(), 1u);
  const auto p = gemm.params_for(m, n, k);
  EXPECT_EQ(p.wgd, tuned.wgd);
  EXPECT_EQ(p.vwmd, tuned.vwmd);
  EXPECT_EQ(p.pada, tuned.pada);

  // Other shapes still fall back to the defaults.
  const auto other = gemm.params_for(m, n, k + 1);
  EXPECT_EQ(other.wgd, xg::params::defaults().wgd);
}

TEST(GemmExecutor, TunedDispatchIsNotSlowerThanDefaults) {
  const std::size_t m = 10, n = 500, k = 64;
  std::vector<float> a(m * k, 1.0f), b(k * n, 1.0f), c(m * n);

  blasmini::tuning_db db;
  blasmini::gemm_executor tuned(ocls::find_device("NVIDIA", "K20m"), &db);
  (void)tuned.tune(m, n, k, 4'000, 3);
  const double t_tuned = tuned.run(m, n, k, a, b, c);

  blasmini::gemm_executor defaults(ocls::find_device("NVIDIA", "K20m"));
  const double t_default = defaults.run(m, n, k, a, b, c);
  EXPECT_LE(t_tuned, t_default);
}

TEST(GemmExecutor, UnknownDeviceEntryFallsBackToDefaults) {
  // The database only knows some other device: the lookup must miss and
  // dispatch must serve the kernel defaults, never throw (Section VI-B).
  blasmini::tuning_db db;
  db.store("AMD Radeon VII", "XgemmDirect", "32x32x32",
           {{"WGD", "64"}, {"KWID", "8"}});
  blasmini::gemm_executor gemm(ocls::find_device("NVIDIA", "K20m"), &db);
  const auto p = gemm.params_for(32, 32, 32);
  EXPECT_EQ(p.wgd, xg::params::defaults().wgd);
  EXPECT_EQ(p.kwid, xg::params::defaults().kwid);
}

TEST(GemmExecutor, UnknownShapeFallsBackToDefaults) {
  blasmini::tuning_db db;
  blasmini::gemm_executor gemm(ocls::find_device("NVIDIA", "K20m"), &db);
  db.store(gemm.device().name(), "XgemmDirect", "32x32x32", {{"WGD", "16"}});
  EXPECT_EQ(gemm.params_for(32, 32, 33).wgd, xg::params::defaults().wgd);
  EXPECT_EQ(gemm.params_for(64, 64, 64).wgd, xg::params::defaults().wgd);
}

TEST(GemmExecutor, CorruptDatabaseLinesFallBackToDefaultsWithoutThrowing) {
  // A hand-edited or truncated database file: foreign lines are skipped on
  // load, and a record with garbage values degrades to the defaults for the
  // unparsable parameters instead of throwing at dispatch time.
  const std::string path =
      ::testing::TempDir() + "blasmini_corrupt_db.tsv";
  {
    std::ofstream out(path);
    out << "# comment survives\n";
    out << "not a record at all\n";
    out << "too\tfew\tfields\n";
    out << "NVIDIA Tesla K20m\tXgemmDirect\t12x12x12\t"
           "WGD=banana KWID= MDIMCD\n";
  }
  const auto db = blasmini::tuning_db::load(path);
  std::remove(path.c_str());
  EXPECT_EQ(db.size(), 1u);

  blasmini::tuning_db mutable_db = db;
  blasmini::gemm_executor gemm(ocls::find_device("NVIDIA", "K20m"),
                               &mutable_db);
  xg::params p;
  EXPECT_NO_THROW(p = gemm.params_for(12, 12, 12));
  // Unparsable values fall back per-parameter to the defaults.
  EXPECT_EQ(p.wgd, xg::params::defaults().wgd);
  EXPECT_EQ(p.kwid, xg::params::defaults().kwid);

  std::vector<float> a(12 * 12, 1.0f), b(12 * 12, 1.0f), c(12 * 12);
  EXPECT_NO_THROW((void)gemm.run(12, 12, 12, a, b, c));
}

TEST(GemmExecutor, NullDatabaseNeverThrowsOnRunOrParamsFor) {
  blasmini::gemm_executor gemm(ocls::find_device("NVIDIA", "K20m"), nullptr);
  EXPECT_NO_THROW((void)gemm.params_for(7, 7, 7));
  std::vector<float> a(7 * 7, 1.0f), b(7 * 7, 1.0f), c(7 * 7);
  EXPECT_NO_THROW((void)gemm.run(7, 7, 7, a, b, c));
}

TEST(GemmExecutor, TuneOptionsDefaultsReproduceLegacyOverload) {
  // Regression pin: the historical tune(m, n, k, evaluations, seed) and the
  // new options overload with default technique must find the identical
  // configuration — the options struct changed the API, not the behaviour.
  const std::size_t m = 16, n = 48, k = 24;
  blasmini::tuning_db db_legacy, db_options;
  blasmini::gemm_executor legacy(ocls::find_device("NVIDIA", "K20m"),
                                 &db_legacy);
  blasmini::gemm_executor with_options(ocls::find_device("NVIDIA", "K20m"),
                                       &db_options);

  const auto p_legacy = legacy.tune(m, n, k, /*evaluations=*/800, /*seed=*/7);
  blasmini::tune_options opts;
  EXPECT_EQ(opts.technique, "opentuner");
  EXPECT_EQ(opts.evaluations, 20'000u);
  EXPECT_EQ(opts.seed, 1u);
  EXPECT_TRUE(opts.journal.empty());
  opts.evaluations = 800;
  opts.seed = 7;
  const auto p_options = with_options.tune(m, n, k, opts);

  EXPECT_EQ(p_legacy.to_string(), p_options.to_string());
  EXPECT_EQ(db_legacy.lookup(legacy.device().name(), "XgemmDirect",
                             "16x48x24"),
            db_options.lookup(with_options.device().name(), "XgemmDirect",
                              "16x48x24"));
}

TEST(GemmExecutor, TuneOptionsSelectsTechniqueAndCallsOnMeasure) {
  const std::size_t m = 12, n = 12, k = 12;
  blasmini::tuning_db db;
  blasmini::gemm_executor gemm(ocls::find_device("NVIDIA", "K20m"), &db);

  blasmini::tune_options opts;
  opts.technique = "random";
  opts.evaluations = 50;
  opts.seed = 11;
  std::size_t measured = 0;
  opts.on_measure = [&] { ++measured; };
  const auto p = gemm.tune(m, n, k, opts);
  // on_measure fires per *fresh* measurement: revisited configurations are
  // answered from the evaluation cache, so the count is <= the budget.
  EXPECT_GE(measured, 1u);
  EXPECT_LE(measured, 50u);
  EXPECT_TRUE(xg::valid({m, n, k}, p, xg::size_mode::general,
                        xg::device_limits::of(gemm.device().profile())));
  // Different techniques under the same seed explore different streams —
  // annealing is driven off the same options without recompiling callers.
  opts.technique = "annealing";
  measured = 0;
  EXPECT_NO_THROW((void)gemm.tune(m, n, k, opts));
  EXPECT_GE(measured, 1u);
  EXPECT_LE(measured, 50u);
}

TEST(GemmExecutor, TuneRejectsZeroBudgetAndUnknownTechnique) {
  // The registry driver reads a zero budget as "sweep the whole space"; a
  // GEMM tune refuses it instead of silently running an exhaustive sweep.
  blasmini::gemm_executor gemm(ocls::find_device("NVIDIA", "K20m"));
  blasmini::tune_options opts;
  opts.evaluations = 0;
  EXPECT_THROW((void)gemm.tune(8, 8, 8, opts), std::invalid_argument);
  opts.evaluations = 10;
  opts.technique = "banana";
  EXPECT_THROW((void)gemm.tune(8, 8, 8, opts), std::invalid_argument);
}

TEST(GemmExecutor, ResultsIdenticalAcrossConfigurations) {
  // Different tuning parameters must never change the numerical result.
  const std::size_t m = 17, n = 23, k = 11;
  std::vector<float> a(m * k), b(k * n);
  for (std::size_t i = 0; i < a.size(); ++i) {
    a[i] = static_cast<float>((i % 13)) * 0.25f - 1.0f;
  }
  for (std::size_t i = 0; i < b.size(); ++i) {
    b[i] = static_cast<float>((i % 5)) - 2.0f;
  }

  blasmini::tuning_db db;
  blasmini::gemm_executor tuned(ocls::find_device("Intel", "Xeon"), &db);
  (void)tuned.tune(m, n, k, 2'000, 9);
  std::vector<float> c_tuned(m * n), c_default(m * n);
  (void)tuned.run(m, n, k, a, b, c_tuned);

  blasmini::gemm_executor defaults(ocls::find_device("Intel", "Xeon"));
  (void)defaults.run(m, n, k, a, b, c_default);
  for (std::size_t i = 0; i < c_tuned.size(); ++i) {
    ASSERT_FLOAT_EQ(c_tuned[i], c_default[i]);
  }
}

}  // namespace
