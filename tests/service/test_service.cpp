// In-process tests of the tuning_service engine: the snapshot hot path,
// the bounded dedup miss queue, deterministic refinement publishing,
// warm-start bit-identity, journal merge and compaction — everything the
// daemon does, minus the socket.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <set>
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

/// The reference `get` hit reply, assembled field by field from a key's
/// published state in the wire order of protocol.hpp. The service builds
/// its reply once per publish; every hit must return exactly these bytes.
std::string reference_hit_reply(const tuning_service::key_state& state) {
  const tuning_record& best = *state.best;
  char hash[32];
  std::snprintf(hash, sizeof(hash), "%016llx",
                static_cast<unsigned long long>(best.config_hash));
  json::value out{json::object{}};
  out.set("ok", true);
  out.set("op", "get");
  out.set("key", state.key.to_string());
  out.set("hit", true);
  out.set("hash", std::string(hash));
  out.set("scalar", best.scalar);
  json::value config{json::object{}};
  for (const auto& [name, value] : best.values) {
    config.set(name, atf::to_string(value));
  }
  out.set("config", std::move(config));
  out.set("configs", std::uint64_t{state.store.size()});
  return json::serialize(out);
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

// Every published hit reply equals the reference assembly from its
// key_state, and a hitting `get` returns those bytes, after every way a
// state is published: load, refinement, compaction, merge and a restart.
// The request counters count exactly as they did when each hit serialized
// its own reply.
TEST_F(ServiceTest, PublishedHitRepliesAreByteIdenticalToTheFieldByFieldReply) {
  const service_key first = make_key("8x8x8");
  const service_key second = make_key("16x16x16");
  const service_key unmeasured = make_key("1x1x1");
  // A key whose journal holds nothing: loaded, but still a miss. The gate
  // keeps it out of the refinement queue so it stays unmeasured.
  std::ofstream(dir_ + "/" + unmeasured.file_stem() + ".jsonl").close();
  auto validate = [&](const service_key& key) -> std::string {
    return key == unmeasured ? "not refined in this test" : "";
  };

  std::uint64_t requests = 0, hits = 0, misses = 0;
  auto check = [&](tuning_service& service, const char* stage) {
    SCOPED_TRACE(stage);
    const auto snap = service.current_snapshot();
    for (const auto& [name, state] : snap->keys) {
      SCOPED_TRACE(name);
      ++requests;
      const std::string reply = service.handle_line(get_line(state->key));
      if (!state->best.has_value()) {
        ++misses;
        EXPECT_TRUE(state->hit_reply.empty());
        EXPECT_FALSE(atf::service::parse_get_reply(reply).hit) << reply;
        continue;
      }
      ++hits;
      EXPECT_EQ(state->hit_reply, reference_hit_reply(*state));
      EXPECT_EQ(reply, state->hit_reply);
    }
    const auto stats = service.stats();
    EXPECT_EQ(stats.requests, requests);
    EXPECT_EQ(stats.hits, hits);
    EXPECT_EQ(stats.misses, misses);
  };

  {
    tuning_service service(options(), appending_refiner(), validate);
    EXPECT_EQ(service.load(), 1u);
    check(service, "load");
    for (const service_key& key : {first, second}) {
      ++requests;
      ++misses;
      EXPECT_FALSE(atf::service::parse_get_reply(
                       service.handle_line(get_line(key)))
                       .hit);
    }
    EXPECT_EQ(service.refine_pending(10), 2u);
    check(service, "refine_pending");
  }

  // Superseding duplicates, then compaction of the reloaded journals.
  {
    journal_writer writer(dir_ + "/" + first.file_stem() + ".jsonl");
    for (int x = 1; x <= 3; ++x) {
      auto record = make_record(x, 100.0 - x);
      record.timestamp_ms = 5000 + x;
      writer.append(record);
    }
  }
  requests = hits = misses = 0;
  tuning_service service(options(), appending_refiner(), validate);
  EXPECT_EQ(service.load(), 3u);
  check(service, "reload");
  EXPECT_EQ(service.compact_all(), 3u);
  check(service, "compact_all");

  // A foreign journal with a new best for the second key.
  const std::string foreign = dir_ + "/foreign.jsonl.in";
  {
    journal_writer writer(foreign);
    auto better = make_record(2, 7.5);
    better.timestamp_ms = 9999;
    writer.append(better);
  }
  const auto merged = service.merge_journal(second, foreign);
  EXPECT_EQ(merged.superseded, 1u);
  check(service, "merge_journal");
  EXPECT_EQ(atf::service::parse_get_reply(
                service.current_snapshot()->keys.at(second.to_string())
                    ->hit_reply)
                .scalar,
            7.5);

  requests = hits = misses = 0;
  tuning_service reborn(options(), appending_refiner(), validate);
  EXPECT_EQ(reborn.load(), 3u);
  check(reborn, "restart");
}

// Readers hammer one key while the background refiner republishes it: every
// reply is byte-equal to one of the states the refiner published, and the
// counters see every read as a hit.
TEST_F(ServiceTest, ConcurrentHitsSeeOnlyPublishedReplies) {
  const service_key key = make_key("32x32x32");
  const std::string line = get_line(key);
  tuning_service service(options(), appending_refiner(/*per_pass=*/1));
  service.load();
  ASSERT_TRUE(service.enqueue(key).first);
  ASSERT_EQ(service.refine_pending(1), 1u);

  auto published_reply = [&] {
    return service.current_snapshot()->keys.at(key.to_string())->hit_reply;
  };
  std::set<std::string> published = {published_reply()};
  service.start();

  constexpr int readers = 4;
  std::atomic<bool> done{false};
  std::vector<std::set<std::string>> seen(readers);
  std::vector<std::uint64_t> reads(readers, 0);
  std::vector<std::thread> threads;
  for (int t = 0; t < readers; ++t) {
    threads.emplace_back([&, t] {
      while (!done.load(std::memory_order_acquire)) {
        seen[t].insert(service.handle_line(line));
        ++reads[t];
      }
    });
  }

  // One enqueue, one publish: wait for each before the next, so every
  // published state is observed here.
  for (int pass = 0; pass < 20; ++pass) {
    const std::uint64_t version = service.current_snapshot()->version;
    ASSERT_TRUE(service.enqueue(key).first);
    for (int i = 0; i < 2000 && service.current_snapshot()->version == version;
         ++i) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    ASSERT_EQ(service.current_snapshot()->version, version + 1);
    published.insert(published_reply());
  }
  done.store(true, std::memory_order_release);
  for (std::thread& thread : threads) {
    thread.join();
  }
  service.stop();

  EXPECT_EQ(published.size(), 21u);  // every pass changed the best record
  std::uint64_t total = 0;
  for (int t = 0; t < readers; ++t) {
    total += reads[t];
    for (const std::string& reply : seen[t]) {
      EXPECT_EQ(published.count(reply), 1u) << reply;
    }
  }
  const auto stats = service.stats();
  EXPECT_EQ(stats.requests, total);
  EXPECT_EQ(stats.hits, total);
  EXPECT_EQ(stats.misses, 0u);
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
