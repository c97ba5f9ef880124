// The per-key journal as the store of tuned GEMM sizes (DESIGN.md §12):
// what blasmini::dispatcher reads back from a journal directory. Pins
//   - the read-back contract: every key's journal best is served exactly,
//     a fresh process sees every key, and reload() picks up new journals;
//   - which record is the best: the cheapest valid record, with a
//     re-measured configuration judged by its latest measurement;
//   - key isolation: other devices', other kernel families' and legacy
//     (pre-per-key naming, tab-separated database) files are never served,
//     for arbitrary device names stuffed with the key encoding's own
//     delimiters;
//   - durability: a journal torn at any byte of a record keeps serving the
//     best of its intact prefix;
//   - one store for every reader: atf::service::tuning_service (what
//     atf_served answers from) and the dispatcher agree on every best.
// The randomized cases use one fixed-seed generator each; failures
// reproduce exactly.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <numeric>
#include <optional>
#include <random>
#include <set>
#include <string>
#include <vector>

#include "atf/service/service.hpp"
#include "blasmini/dispatch.hpp"
#include "blasmini/gemm.hpp"
#include "journal_seed.hpp"

namespace {

namespace xg = atf::kernels::xgemm;
using blasmini::dispatcher;
using blasmini_test::fresh_dir;
using blasmini_test::gemm_record;
using blasmini_test::journaled;
using blasmini_test::wide_params;

ocls::device k20m() { return ocls::find_device("NVIDIA", "K20m"); }

/// The K20m under another name: the dispatcher keys journals by the device
/// name, so this is a distinct device for the store.
ocls::device renamed_k20m(const std::string& name) {
  ocls::device_profile profile = k20m().profile();
  profile.device_name = name;
  return ocls::device(profile);
}

/// Distinct decodable configurations (WGD x KWID x vector width).
std::vector<xg::params> param_pool() {
  std::vector<xg::params> pool;
  for (const std::uint64_t wgd : {8u, 16u, 32u}) {
    for (const std::uint64_t kwid : {1u, 2u}) {
      for (const std::uint64_t vw : {1u, 2u}) {
        xg::params p;
        p.wgd = wgd;
        p.kwid = kwid;
        p.vwmd = vw;
        p.vwnd = vw;
        pool.push_back(p);
      }
    }
  }
  return pool;
}

std::string signature(const xg::problem& shape) {
  return blasmini::gemm_executor::problem_signature(shape.m, shape.n,
                                                    shape.k);
}

/// The configuration a fresh dispatcher serves for `shape`, or nullopt when
/// it is not an exact hit.
std::optional<std::string> served_exactly(dispatcher& dispatch,
                                          const xg::problem& shape) {
  const auto decision = dispatch.dispatch(shape.m, shape.n, shape.k);
  if (decision.from != dispatcher::source::exact) {
    return std::nullopt;
  }
  return decision.params.to_string();
}

void append(const std::string& path, const atf::session::tuning_record& r) {
  atf::session::journal_writer(path).append(r);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void write_file(const std::string& path, const std::string& bytes) {
  std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
}

// ------------------------------------------------------- read-back contract

TEST(GemmJournalStore, EmptyDirectoryHoldsNoSizes) {
  dispatcher dispatch(k20m(), journaled(fresh_dir()));
  EXPECT_TRUE(dispatch.known_sizes().empty());
  EXPECT_EQ(dispatch.rerank_samples(), 0u);
  EXPECT_EQ(dispatch.dispatch(16, 16, 16).from,
            dispatcher::source::defaults);
}

TEST(GemmJournalStore, FreshDispatcherServesEveryKeyExactly) {
  const std::string dir = fresh_dir();
  const auto pool = param_pool();
  const std::vector<xg::problem> shapes = {
      {16, 16, 16}, {32, 16, 8}, {10, 500, 64}, {64, 64, 64}, {7, 9, 11}};
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    blasmini_test::seed_journal(dir, k20m().name(), signature(shapes[i]),
                                pool[i]);
  }

  dispatcher dispatch(k20m(), journaled(dir));
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    EXPECT_EQ(served_exactly(dispatch, shapes[i]), pool[i].to_string())
        << signature(shapes[i]);
  }
  EXPECT_EQ(dispatch.pending_refinements(), 0u);
}

TEST(GemmJournalStore, ReloadPicksUpJournalsWrittenSinceConstruction) {
  const std::string dir = fresh_dir();
  dispatcher dispatch(k20m(), journaled(dir));
  blasmini_test::seed_journal(dir, k20m().name(), "24x24x24", wide_params());
  // The snapshot is the one published at construction until reloaded.
  EXPECT_EQ(dispatch.dispatch(24, 24, 24).from,
            dispatcher::source::defaults);

  dispatch.reload();
  EXPECT_EQ(dispatch.known_sizes(), std::vector<std::string>{"24x24x24"});
  EXPECT_EQ(served_exactly(dispatch, {24, 24, 24}),
            wide_params().to_string());
}

// ---------------------------------------------------- which record is best

TEST(GemmJournalStore, CheaperLaterRecordBecomesTheServedBest) {
  const std::string dir = fresh_dir();
  const std::string path =
      blasmini_test::journal_path(dir, k20m().name(), "32x32x32");
  append(path, gemm_record(xg::params::defaults(), 2000.0));
  append(path, gemm_record(wide_params(), 500.0));

  dispatcher dispatch(k20m(), journaled(dir));
  EXPECT_EQ(served_exactly(dispatch, {32, 32, 32}),
            wide_params().to_string());
}

TEST(GemmJournalStore, DearerLaterRecordDoesNotDisplaceTheBest) {
  const std::string dir = fresh_dir();
  const std::string path =
      blasmini_test::journal_path(dir, k20m().name(), "32x32x32");
  append(path, gemm_record(wide_params(), 500.0));
  append(path, gemm_record(xg::params::defaults(), 2000.0));

  dispatcher dispatch(k20m(), journaled(dir));
  EXPECT_EQ(served_exactly(dispatch, {32, 32, 32}),
            wide_params().to_string());
}

TEST(GemmJournalStore, RemeasuredConfigurationIsJudgedByItsLatestRecord) {
  // WIDE was once the fastest, then re-measured much slower: the store
  // keeps only the latest measurement per configuration, so the served
  // best moves to the defaults.
  const std::string dir = fresh_dir();
  const std::string path =
      blasmini_test::journal_path(dir, k20m().name(), "48x48x48");
  auto first = gemm_record(wide_params(), 100.0);
  first.run_id = "run";
  first.sequence = 1;
  auto defaults = gemm_record(xg::params::defaults(), 1000.0);
  defaults.run_id = "run";
  defaults.sequence = 2;
  auto remeasured = gemm_record(wide_params(), 5000.0);
  remeasured.run_id = "run";
  remeasured.sequence = 3;
  append(path, first);
  append(path, defaults);
  append(path, remeasured);

  dispatcher dispatch(k20m(), journaled(dir));
  EXPECT_EQ(served_exactly(dispatch, {48, 48, 48}),
            xg::params::defaults().to_string());
}

TEST(GemmJournalStore, FailedMeasurementsAreNeverServed) {
  const std::string dir = fresh_dir();
  auto failed = gemm_record(wide_params(), 1.0);
  failed.valid = false;
  failed.failure = "launch failed";
  failed.cost = atf::session::json::value();
  // A failed record cheaper than the valid one does not win ...
  const std::string mixed =
      blasmini_test::journal_path(dir, k20m().name(), "16x16x16");
  append(mixed, failed);
  append(mixed, gemm_record(xg::params::defaults(), 900.0));
  // ... and a key holding only failures is not a stored size at all.
  append(blasmini_test::journal_path(dir, k20m().name(), "64x64x64"),
         failed);

  dispatcher dispatch(k20m(), journaled(dir));
  EXPECT_EQ(dispatch.known_sizes(), std::vector<std::string>{"16x16x16"});
  EXPECT_EQ(served_exactly(dispatch, {16, 16, 16}),
            xg::params::defaults().to_string());
  EXPECT_NE(dispatch.dispatch(64, 64, 64).from, dispatcher::source::exact);
}

// ------------------------------------------------------------ key isolation

TEST(GemmJournalStore, OtherDevicesJournalsAreNotServed) {
  const std::string dir = fresh_dir();
  const ocls::device other = renamed_k20m("K20m twin");
  blasmini_test::seed_journal(dir, k20m().name(), "16x16x16", wide_params());
  blasmini_test::seed_journal(dir, other.name(), "32x32x32", wide_params());

  dispatcher mine(k20m(), journaled(dir));
  EXPECT_EQ(mine.known_sizes(), std::vector<std::string>{"16x16x16"});
  dispatcher theirs(other, journaled(dir));
  EXPECT_EQ(theirs.known_sizes(), std::vector<std::string>{"32x32x32"});
}

TEST(GemmJournalStore, OtherKernelFamiliesAreNotServed) {
  const std::string dir = fresh_dir();
  const atf::service::service_key saxpy{"saxpy", k20m().name(), "16x16x16"};
  append(dir + "/" + saxpy.file_stem() + ".jsonl",
         gemm_record(wide_params(), 10.0));

  dispatcher dispatch(k20m(), journaled(dir));
  EXPECT_TRUE(dispatch.known_sizes().empty());
  EXPECT_EQ(dispatch.dispatch(16, 16, 16).from,
            dispatcher::source::defaults);
}

TEST(GemmJournalStore, LegacyDatabaseAndJournalNamesAreNotRead) {
  const std::string dir = fresh_dir();
  // The retired tab-separated database and a journal under the retired
  // "<sanitized device>-MxNxK.jsonl" name, both describing a valid tune.
  write_file(dir + "/tuning.tsv",
             "Tesla K20m\tXgemmDirect\t16x16x16\tWGD=16\tKWID=2\n");
  append(dir + "/Tesla_K20m-16x16x16.jsonl",
         gemm_record(wide_params(), 10.0));

  dispatcher dispatch(k20m(), journaled(dir));
  EXPECT_TRUE(dispatch.known_sizes().empty());
  EXPECT_EQ(dispatch.dispatch(16, 16, 16).from,
            dispatcher::source::defaults);
}

TEST(GemmJournalStoreProperty, HostileDeviceNamesRoundTripInIsolation) {
  // Device names built from the characters the file-stem encoding must
  // escape ('+' separates key fields, '%' escapes, '/' separates paths)
  // plus whitespace, comment markers and '.'. Every device sees exactly
  // its own sizes and configurations after a fresh load of a shared
  // directory.
  static const std::string nasty = "\t\n\\=+%/# .";
  static const std::string plain = "abcXYZ019-_";
  std::mt19937_64 rng(0xA7F0DB);
  std::uniform_int_distribution<std::size_t> length(1, 10);
  std::bernoulli_distribution pick_nasty(0.5);
  const auto pool = param_pool();
  std::uniform_int_distribution<std::size_t> pick_params(0, pool.size() - 1);
  std::uniform_int_distribution<std::size_t> extent(1, 512);

  for (int round = 0; round < 8; ++round) {
    const std::string dir = fresh_dir("_" + std::to_string(round));
    std::map<std::string, std::map<std::string, std::string>> expected;
    for (int d = 0; d < 4; ++d) {
      std::string name;
      const std::size_t len = length(rng);
      for (std::size_t i = 0; i < len; ++i) {
        const std::string& from = pick_nasty(rng) ? nasty : plain;
        name += from[std::uniform_int_distribution<std::size_t>(
            0, from.size() - 1)(rng)];
      }
      for (int s = 0; s < 3; ++s) {
        const std::string sig = signature({extent(rng), extent(rng),
                                           extent(rng)});
        if (expected[name].count(sig) != 0) {
          continue;
        }
        const xg::params& p = pool[pick_params(rng)];
        blasmini_test::seed_journal(dir, name, sig, p);
        expected[name][sig] = p.to_string();
      }
    }

    for (const auto& [name, sizes] : expected) {
      dispatcher dispatch(renamed_k20m(name), journaled(dir));
      std::vector<std::string> signatures;
      for (const auto& [sig, params] : sizes) {
        signatures.push_back(sig);
      }
      EXPECT_EQ(dispatch.known_sizes(), signatures)
          << "round " << round << " device '" << name << "'";
      for (const auto& [sig, params] : sizes) {
        const auto shape = blasmini::size_grid::parse(sig).sizes.front();
        EXPECT_EQ(served_exactly(dispatch, shape), params)
            << "round " << round << " device '" << name << "' " << sig;
      }
    }
  }
}

// -------------------------------------------------- randomized best choice

TEST(GemmJournalStoreProperty, EveryShapeServesItsCheapestValidRecord) {
  std::mt19937_64 rng(0xBEEFCAFE);
  const auto pool = param_pool();
  std::uniform_int_distribution<std::size_t> pick_params(0, pool.size() - 1);
  std::uniform_int_distribution<std::size_t> extent(1, 256);
  std::uniform_int_distribution<int> record_count(1, 6);
  std::uniform_real_distribution<double> cost(100.0, 10000.0);
  std::bernoulli_distribution fails(0.2);

  for (int round = 0; round < 10; ++round) {
    const std::string dir = fresh_dir("_" + std::to_string(round));
    std::map<std::string, std::optional<std::string>> expected;
    for (int s = 0; s < 5; ++s) {
      const std::string sig = signature({extent(rng), extent(rng),
                                         extent(rng)});
      if (expected.count(sig) != 0) {
        continue;
      }
      const std::string path =
          blasmini_test::journal_path(dir, k20m().name(), sig);
      // Distinct configurations per journal, so no record supersedes
      // another and the best is the plain minimum over valid records.
      std::vector<std::size_t> picks(pool.size());
      std::iota(picks.begin(), picks.end(), 0);
      std::shuffle(picks.begin(), picks.end(), rng);
      picks.resize(static_cast<std::size_t>(record_count(rng)));
      double best = std::numeric_limits<double>::infinity();
      std::optional<std::string> best_params;
      for (const std::size_t pick : picks) {
        auto record = gemm_record(pool[pick], cost(rng));
        if (fails(rng)) {
          record.valid = false;
          record.failure = "timeout";
          record.cost = atf::session::json::value();
        } else if (record.scalar < best) {
          best = record.scalar;
          best_params = pool[pick].to_string();
        }
        append(path, record);
      }
      expected[sig] = best_params;
    }

    dispatcher dispatch(k20m(), journaled(dir));
    for (const auto& [sig, params] : expected) {
      const auto shape = blasmini::size_grid::parse(sig).sizes.front();
      EXPECT_EQ(served_exactly(dispatch, shape), params)
          << "round " << round << " " << sig;
    }
  }
}

TEST(GemmJournalStoreProperty, KnownSizesAreEveryShapeInAscendingOrder) {
  std::mt19937_64 rng(0x5EED5);
  std::uniform_int_distribution<std::size_t> extent(1, 4096);
  const std::string dir = fresh_dir();
  std::set<std::string> signatures;
  for (int i = 0; i < 20; ++i) {
    const std::string sig = signature({extent(rng), extent(rng),
                                       extent(rng)});
    if (signatures.insert(sig).second) {
      blasmini_test::seed_journal(dir, k20m().name(), sig,
                                  xg::params::defaults());
    }
  }

  dispatcher dispatch(k20m(), journaled(dir));
  EXPECT_EQ(dispatch.known_sizes(),
            std::vector<std::string>(signatures.begin(), signatures.end()));
  // A second reload reads the same directory to the same state.
  dispatch.reload();
  EXPECT_EQ(dispatch.known_sizes(),
            std::vector<std::string>(signatures.begin(), signatures.end()));
}

// --------------------------------------------------------------- durability

TEST(GemmJournalDurability, TornLastRecordKeepsTheCommittedBest) {
  // A writer killed while appending a better record leaves a torn tail at
  // some byte of that record: at every such byte the intact prefix's best
  // is still served. The record counts as written once its CRC guard is
  // complete — only the terminating newline may then be missing.
  const std::string dir = fresh_dir();
  const std::string path =
      blasmini_test::journal_path(dir, k20m().name(), "40x40x40");
  append(path, gemm_record(xg::params::defaults(), 2000.0));
  const std::string committed = read_file(path);
  append(path, gemm_record(wide_params(), 500.0));
  const std::string complete = read_file(path);
  ASSERT_GT(complete.size(), committed.size());

  for (std::size_t cut = committed.size(); cut + 1 < complete.size(); ++cut) {
    write_file(path, complete.substr(0, cut));
    std::optional<dispatcher> dispatch;
    ASSERT_NO_THROW(dispatch.emplace(k20m(), journaled(dir))) << "cut " << cut;
    EXPECT_EQ(served_exactly(*dispatch, {40, 40, 40}),
              xg::params::defaults().to_string())
        << "cut " << cut;
  }
  for (const std::size_t cut : {complete.size() - 1, complete.size()}) {
    write_file(path, complete.substr(0, cut));
    dispatcher dispatch(k20m(), journaled(dir));
    EXPECT_EQ(served_exactly(dispatch, {40, 40, 40}),
              wide_params().to_string())
        << "cut " << cut;
  }
}

TEST(GemmJournalDurability, TornFirstRecordLeavesTheShapeUntuned) {
  // Killed during the very first append (header included), at any byte
  // before the record's CRC guard is complete: the key holds no valid
  // record, so dispatch stays on the defaults and never throws.
  const std::string dir = fresh_dir();
  const std::string path =
      blasmini_test::journal_path(dir, k20m().name(), "40x40x40");
  append(path, gemm_record(wide_params(), 500.0));
  const std::string complete = read_file(path);

  for (std::size_t cut = 0; cut + 1 < complete.size(); ++cut) {
    write_file(path, complete.substr(0, cut));
    std::optional<dispatcher> dispatch;
    ASSERT_NO_THROW(dispatch.emplace(k20m(), journaled(dir))) << "cut " << cut;
    EXPECT_TRUE(dispatch->known_sizes().empty()) << "cut " << cut;
    EXPECT_EQ(dispatch->dispatch(40, 40, 40).from,
              dispatcher::source::defaults)
        << "cut " << cut;
  }
}

TEST(GemmJournalDurability, TornJournalDoesNotHideOtherKeys) {
  const std::string dir = fresh_dir();
  blasmini_test::seed_journal(dir, k20m().name(), "16x16x16", wide_params());
  const std::string torn =
      blasmini_test::journal_path(dir, k20m().name(), "32x32x32");
  append(torn, gemm_record(wide_params(), 500.0));
  const std::string bytes = read_file(torn);
  write_file(torn, bytes.substr(0, bytes.size() / 2));

  dispatcher dispatch(k20m(), journaled(dir));
  EXPECT_EQ(dispatch.known_sizes(), std::vector<std::string>{"16x16x16"});
  EXPECT_EQ(served_exactly(dispatch, {16, 16, 16}),
            wide_params().to_string());
}

// ---------------------------------------------------- one store, two readers

TEST(GemmJournalStore, ServiceAndDispatcherAgreeOnEveryBest) {
  const std::string dir = fresh_dir();
  const auto pool = param_pool();
  const std::vector<xg::problem> shapes = {{8, 8, 8}, {16, 32, 64},
                                           {100, 20, 3}};
  for (std::size_t i = 0; i < shapes.size(); ++i) {
    const std::string path =
        blasmini_test::journal_path(dir, k20m().name(), signature(shapes[i]));
    append(path, gemm_record(pool[i], 3000.0));
    append(path, gemm_record(pool[i + 3], 1000.0 + static_cast<double>(i)));
  }

  atf::service::tuning_service service({.journal_dir = dir},
                                       [](const auto&, const auto&) {
                                         return false;
                                       });
  ASSERT_EQ(service.load(), shapes.size());
  dispatcher dispatch(k20m(), journaled(dir));
  const auto snapshot = service.current_snapshot();
  for (const auto& shape : shapes) {
    const atf::service::service_key key{"xgemm", k20m().name(),
                                        signature(shape)};
    const auto it = snapshot->keys.find(key.to_string());
    ASSERT_NE(it, snapshot->keys.end()) << key.to_string();
    ASSERT_TRUE(it->second->best.has_value());
    const auto from_service =
        atf::kernels::params_from<xg::params>(
            it->second->best->to_configuration())
            .to_string();
    EXPECT_EQ(served_exactly(dispatch, shape), from_service)
        << key.to_string();
  }
}

}  // namespace
