// In-process tests of the tuning_service engine: the snapshot hot path,
// the bounded dedup miss queue, deterministic refinement publishing,
// warm-start bit-identity, journal merge and compaction — everything the
// daemon does, minus the socket.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "atf/service/service.hpp"
#include "atf/session/journal.hpp"
#include "atf/session/result_store.hpp"
#include "atf/session/tuning_record.hpp"
#include "atf/value.hpp"

namespace {

using atf::service::service_key;
using atf::service::service_options;
using atf::service::tuning_service;
using atf::session::journal_writer;
using atf::session::read_journal;
using atf::session::tuning_record;
namespace json = atf::session::json;

service_key make_key(const std::string& size) {
  service_key key;
  key.kernel = "xgemm";
  key.device = "K20m";
  key.size = size;
  return key;
}

tuning_record make_record(int x, double cost) {
  atf::configuration config;
  config.add("x", atf::to_tp_value<int>(x));
  tuning_record record = tuning_record::from_configuration(config);
  record.valid = true;
  record.scalar = cost;
  record.cost = json::value(cost);
  record.run_id = "run-1";
  record.sequence = static_cast<std::uint64_t>(x);
  record.timestamp_ms = 1000 + x;
  return record;
}

std::string get_line(const service_key& key) {
  atf::service::request r;
  r.operation = atf::service::request::op::get;
  r.key = key;
  return atf::service::serialize_request(r);
}

class ServiceTest : public ::testing::Test {
protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "atf_service_" +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  /// A deterministic refine backend: appends `per_pass` fixed records per
  /// call, continuing from however many the journal already holds.
  atf::service::refine_fn appending_refiner(int per_pass = 3) {
    return [per_pass](const service_key&, const std::string& journal) {
      const int existing =
          static_cast<int>(read_journal(journal).records.size());
      journal_writer writer(journal);
      for (int i = 0; i < per_pass; ++i) {
        const int x = existing + i + 1;
        writer.append(make_record(x, 100.0 - x));
      }
      return true;
    };
  }

  service_options options(std::size_t max_pending = 4) {
    service_options opts;
    opts.journal_dir = dir_;
    opts.max_pending = max_pending;
    return opts;
  }

  std::string dir_;
};

TEST_F(ServiceTest, MissEnqueuesThenRefineProducesAHit) {
  tuning_service service(options(), appending_refiner());
  service.load();

  const service_key key = make_key("8x8x8");
  const auto miss =
      atf::service::parse_get_reply(service.handle_line(get_line(key)));
  EXPECT_TRUE(miss.ok);
  EXPECT_FALSE(miss.hit);
  EXPECT_TRUE(miss.enqueued);
  EXPECT_FALSE(miss.dropped);

  EXPECT_EQ(service.refine_pending(10), 1u);

  const auto hit =
      atf::service::parse_get_reply(service.handle_line(get_line(key)));
  EXPECT_TRUE(hit.hit);
  EXPECT_EQ(hit.configs, 3u);
  // The refiner's best record is x=3 (scalar 97).
  EXPECT_EQ(hit.scalar, 97.0);

  const auto stats = service.stats();
  EXPECT_EQ(stats.requests, 2u);
  EXPECT_EQ(stats.misses, 1u);
  EXPECT_EQ(stats.hits, 1u);
  EXPECT_EQ(stats.enqueued, 1u);
  EXPECT_EQ(stats.refines, 1u);
  EXPECT_EQ(stats.keys, 1u);
}

TEST_F(ServiceTest, RepeatMissIsDedupedNotDropped) {
  tuning_service service(options(/*max_pending=*/1), appending_refiner());
  service.load();

  const service_key key = make_key("8x8x8");
  const auto first =
      atf::service::parse_get_reply(service.handle_line(get_line(key)));
  EXPECT_TRUE(first.enqueued);
  // The queue is full (bound 1), but the same key again is a repeat miss,
  // not a drop.
  const auto repeat =
      atf::service::parse_get_reply(service.handle_line(get_line(key)));
  EXPECT_FALSE(repeat.enqueued);
  EXPECT_FALSE(repeat.dropped);
  EXPECT_EQ(service.stats().dropped_refinements, 0u);
}

TEST_F(ServiceTest, DropCounterIncrementsExactlyAtTheBound) {
  tuning_service service(options(/*max_pending=*/2), appending_refiner());
  service.load();

  // Two distinct keys fill the queue; the third and fourth are drops.
  EXPECT_TRUE(atf::service::parse_get_reply(
                  service.handle_line(get_line(make_key("1x1x1"))))
                  .enqueued);
  EXPECT_TRUE(atf::service::parse_get_reply(
                  service.handle_line(get_line(make_key("2x2x2"))))
                  .enqueued);
  EXPECT_EQ(service.stats().dropped_refinements, 0u);

  const auto third = atf::service::parse_get_reply(
      service.handle_line(get_line(make_key("3x3x3"))));
  EXPECT_FALSE(third.enqueued);
  EXPECT_TRUE(third.dropped);
  EXPECT_EQ(service.stats().dropped_refinements, 1u);

  EXPECT_TRUE(atf::service::parse_get_reply(
                  service.handle_line(get_line(make_key("4x4x4"))))
                  .dropped);
  EXPECT_EQ(service.stats().dropped_refinements, 2u);

  // Draining frees the queue: the dropped key can enqueue again.
  EXPECT_EQ(service.refine_pending(10), 2u);
  EXPECT_TRUE(atf::service::parse_get_reply(
                  service.handle_line(get_line(make_key("3x3x3"))))
                  .enqueued);
  EXPECT_EQ(service.stats().dropped_refinements, 2u);
}

TEST_F(ServiceTest, ValidateGateMarksKeysUnrefinable) {
  auto validate = [](const service_key& key) -> std::string {
    return key.kernel == "xgemm" ? "" : "unknown kernel";
  };
  tuning_service service(options(), appending_refiner(), validate);
  service.load();

  service_key foreign = make_key("8x8x8");
  foreign.kernel = "conv2d";
  const auto reply = atf::service::parse_get_reply(
      service.handle_line(get_line(foreign)));
  EXPECT_FALSE(reply.hit);
  EXPECT_TRUE(reply.unrefinable);
  EXPECT_FALSE(reply.enqueued);
  EXPECT_EQ(service.stats().unrefinable, 1u);
  EXPECT_EQ(service.stats().pending, 0u);
}

TEST_F(ServiceTest, WarmStartAnswersBitIdentically) {
  const service_key key = make_key("16x16x16");
  std::string first_reply;
  {
    tuning_service service(options(), appending_refiner());
    service.load();
    (void)service.handle_line(get_line(key));
    service.refine_pending(1);
    first_reply = service.handle_line(get_line(key));
  }
  // A fresh service over the same journal directory — the daemon after a
  // kill — must serve the exact same bytes.
  tuning_service reborn(options(), appending_refiner());
  EXPECT_EQ(reborn.load(), 1u);
  EXPECT_EQ(reborn.handle_line(get_line(key)), first_reply);
}

TEST_F(ServiceTest, CompactionShrinksJournalsWithoutChangingAnswers) {
  const service_key key = make_key("16x16x16");
  tuning_service service(options(), appending_refiner());
  service.load();
  (void)service.handle_line(get_line(key));
  service.refine_pending(1);

  // Pile superseding duplicates onto the journal: same configs re-measured.
  {
    journal_writer writer(service.journal_path(key));
    for (int round = 0; round < 5; ++round) {
      for (int x = 1; x <= 3; ++x) {
        auto record = make_record(x, 100.0 - x);
        record.timestamp_ms = 2000 + round;
        writer.append(record);
      }
    }
  }
  tuning_service reloaded(options(), appending_refiner());
  reloaded.load();
  const std::string before = reloaded.handle_line(get_line(key));
  const auto size_before =
      std::filesystem::file_size(reloaded.journal_path(key));

  EXPECT_EQ(reloaded.compact_all(), 1u);

  const auto size_after =
      std::filesystem::file_size(reloaded.journal_path(key));
  EXPECT_LT(size_after, size_before);
  EXPECT_EQ(reloaded.handle_line(get_line(key)), before);
  // And a cold start over the compacted journal still agrees.
  tuning_service after(options(), appending_refiner());
  after.load();
  EXPECT_EQ(after.handle_line(get_line(key)), before);
}

TEST_F(ServiceTest, MergeJournalFoldsForeignRecordsDeterministically) {
  const service_key key = make_key("32x32x32");
  tuning_service service(options(), appending_refiner());
  service.load();
  (void)service.handle_line(get_line(key));
  service.refine_pending(1);  // journal now has x=1..3

  // A foreign daemon measured x=3 better (newer timestamp) and x=9 fresh.
  const std::string foreign = dir_ + "/foreign.jsonl";
  {
    journal_writer writer(foreign);
    auto better = make_record(3, 42.0);
    better.timestamp_ms = 9999;
    writer.append(better);
    writer.append(make_record(9, 91.0));
    writer.append(make_record(1, 99.0));  // identical to ours: ignored
  }
  const auto stats = service.merge_journal(key, foreign);
  EXPECT_EQ(stats.added, 1u);
  EXPECT_EQ(stats.superseded, 1u);
  EXPECT_EQ(stats.ignored, 1u);

  const auto reply =
      atf::service::parse_get_reply(service.handle_line(get_line(key)));
  EXPECT_TRUE(reply.hit);
  EXPECT_EQ(reply.scalar, 42.0);
  EXPECT_EQ(reply.configs, 4u);

  // Merging the same journal again is a no-op: everything is ignored.
  const auto again = service.merge_journal(key, foreign);
  EXPECT_EQ(again.added, 0u);
  EXPECT_EQ(again.superseded, 0u);
  EXPECT_EQ(again.ignored, 3u);
}

TEST_F(ServiceTest, MalformedLinesAreCountedAndAnswered) {
  tuning_service service(options(), appending_refiner());
  service.load();
  const std::string reply = service.handle_line("not json");
  EXPECT_NE(reply.find("\"ok\":false"), std::string::npos);
  EXPECT_EQ(service.stats().malformed, 1u);
}

TEST_F(ServiceTest, DeeplyNestedLineIsMalformedNotACrash) {
  tuning_service service(options(), appending_refiner());
  service.load();
  const std::string reply = service.handle_line(std::string(1'000'000, '['));
  EXPECT_NE(reply.find("\"ok\":false"), std::string::npos) << reply;
  EXPECT_NE(reply.find("nesting"), std::string::npos) << reply;
  EXPECT_EQ(service.stats().malformed, 1u);
}

TEST_F(ServiceTest, BackgroundRefinerServesMissesEventually) {
  tuning_service service(options(), appending_refiner());
  service.load();
  service.start();
  const service_key key = make_key("64x64x64");
  (void)service.handle_line(get_line(key));
  // Poll until the background thread publishes (bounded wait).
  atf::service::get_reply reply;
  for (int i = 0; i < 200; ++i) {
    reply = atf::service::parse_get_reply(service.handle_line(get_line(key)));
    if (reply.hit) {
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(reply.hit);
  service.stop();
}

TEST_F(ServiceTest, FailedRefinementStillPublishesThePartialJournal) {
  // A refiner that journals one record and then throws — the paid-for
  // measurement must still become servable.
  auto refine = [](const service_key&, const std::string& journal) -> bool {
    journal_writer writer(journal);
    writer.append(make_record(1, 50.0));
    throw std::runtime_error("simulated tuner crash");
  };
  tuning_service service(options(), refine);
  service.load();
  const service_key key = make_key("8x8x8");
  (void)service.handle_line(get_line(key));
  service.refine_pending(1);
  EXPECT_EQ(service.stats().failed_refines, 1u);
  const auto reply =
      atf::service::parse_get_reply(service.handle_line(get_line(key)));
  EXPECT_TRUE(reply.hit);
  EXPECT_EQ(reply.scalar, 50.0);
}

}  // namespace
