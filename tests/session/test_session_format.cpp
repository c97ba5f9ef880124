// The session layer's byte-level formats: the minimal JSON value, the
// stable configuration hash and the tuning-record round trip. These pin
// exact bytes and exact hash values on purpose — journals written today
// must be readable (and hash-matchable) by every future build.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <set>
#include <string>

#include "atf/common/hash.hpp"
#include "atf/configuration.hpp"
#include "atf/session/json.hpp"
#include "atf/session/tuning_record.hpp"
#include "atf/value.hpp"

namespace {

namespace json = atf::session::json;

TEST(SessionJson, SerializesCompactlyInInsertionOrder) {
  json::value obj{json::object{}};
  obj.set("b", json::value(2));
  obj.set("a", json::value("x"));
  obj.set("n", json::value(nullptr));
  obj.set("t", json::value(true));
  EXPECT_EQ(json::serialize(obj), R"({"b":2,"a":"x","n":null,"t":true})");
}

TEST(SessionJson, RoundTripsIntegersWithSignedness) {
  // u64 above 2^53: a double-backed JSON library would corrupt this.
  const std::uint64_t big = 0xFFFFFFFFFFFFFFFFull;
  json::value v{json::array{json::value(std::int64_t{-42}), json::value(big)}};
  const json::value back = json::parse(json::serialize(v));
  EXPECT_EQ(back.as_array()[0].as_int64(), -42);
  EXPECT_EQ(back.as_array()[1].as_uint64(), big);
}

TEST(SessionJson, RoundTripsDoublesBitExactly) {
  for (const double d : {0.1, 1.0 / 3.0, 6.02214076e23, 5e-324,
                         std::numeric_limits<double>::max()}) {
    const json::value back = json::parse(json::serialize(json::value(d)));
    EXPECT_EQ(back.as_double(), d) << json::serialize(json::value(d));
  }
}

TEST(SessionJson, AcceptsNonFiniteTokens) {
  EXPECT_TRUE(std::isinf(json::parse("Infinity").as_double()));
  EXPECT_TRUE(std::isinf(json::parse("-Infinity").as_double()));
  EXPECT_TRUE(std::isnan(json::parse("NaN").as_double()));
  // And serializes them back as the same tokens.
  EXPECT_EQ(json::serialize(
                json::value(std::numeric_limits<double>::infinity())),
            "Infinity");
}

TEST(SessionJson, RoundTripsEscapedStrings) {
  const std::string nasty = "a\"b\\c\n\t\x01 d";
  const json::value back = json::parse(json::serialize(json::value(nasty)));
  EXPECT_EQ(back.as_string(), nasty);
}

TEST(SessionJson, RejectsMalformedDocuments) {
  EXPECT_THROW((void)json::parse(""), json::parse_error);
  EXPECT_THROW((void)json::parse("{"), json::parse_error);
  EXPECT_THROW((void)json::parse("{} trailing"), json::parse_error);
  EXPECT_THROW((void)json::parse(R"({"a":})"), json::parse_error);
}

atf::configuration make_config() {
  atf::configuration config;
  config.add("WPT", atf::to_tp_value<int>(8));
  config.add("LS", atf::to_tp_value<std::size_t>(64));
  config.add("USE_LM", atf::to_tp_value<bool>(true));
  config.add("ALPHA", atf::to_tp_value<double>(0.25));
  return config;
}

TEST(SessionJson, RejectsHostileNestingWithoutRecursingIntoIt) {
  // A million open brackets would overflow the stack of an unbounded
  // recursive-descent parser; the depth limit turns it into parse_error.
  EXPECT_THROW((void)json::parse(std::string(1'000'000, '[')),
               json::parse_error);
  std::string objects;
  for (int i = 0; i < 100'000; ++i) {
    objects += R"({"a":)";
  }
  EXPECT_THROW((void)json::parse(objects), json::parse_error);
  // Exactly at the limit still parses; one level more does not.
  const std::size_t limit = json::max_nesting_depth;
  EXPECT_NO_THROW((void)json::parse(std::string(limit, '[') +
                                    std::string(limit, ']')));
  EXPECT_THROW((void)json::parse(std::string(limit + 1, '[') +
                                 std::string(limit + 1, ']')),
               json::parse_error);
}

TEST(ConfigurationHash, IsIndependentOfEntryOrder) {
  atf::configuration reordered;
  reordered.add("ALPHA", atf::to_tp_value<double>(0.25));
  reordered.add("USE_LM", atf::to_tp_value<bool>(true));
  reordered.add("LS", atf::to_tp_value<std::size_t>(64));
  reordered.add("WPT", atf::to_tp_value<int>(8));
  EXPECT_EQ(make_config().hash(), reordered.hash());
}

TEST(ConfigurationHash, IgnoresTheSpaceIndex) {
  atf::configuration a = make_config();
  atf::configuration b = make_config();
  b.set_space_index(1234);
  EXPECT_EQ(a.hash(), b.hash());
}

TEST(ConfigurationHash, DistinguishesTypeAlternatives) {
  // int64 8 vs uint64 8 vs bool-ish payloads must hash apart: the journal
  // round-trips the exact alternative, and conflating them would let a
  // replayed record shadow a genuinely different configuration.
  atf::configuration as_signed;
  as_signed.add("x", atf::to_tp_value<int>(1));
  atf::configuration as_unsigned;
  as_unsigned.add("x", atf::to_tp_value<unsigned>(1));
  atf::configuration as_bool;
  as_bool.add("x", atf::to_tp_value<bool>(true));
  EXPECT_NE(as_signed.hash(), as_unsigned.hash());
  EXPECT_NE(as_signed.hash(), as_bool.hash());
  EXPECT_NE(as_unsigned.hash(), as_bool.hash());
}

TEST(ConfigurationHash, IsStableAcrossRunsAndBuilds) {
  // Golden values: these pin the algorithm itself (FNV-1a, name-sorted,
  // type tag + 8-byte LE payload). If this test ever fails, the hash
  // changed and existing journals silently stop warm-starting — treat it
  // as a format break, not as a test to update casually.
  atf::configuration empty;
  EXPECT_EQ(empty.hash(), 14695981039346656037ull);  // FNV offset basis

  atf::configuration one;
  one.add("x", atf::to_tp_value<int>(1));
  EXPECT_EQ(one.hash(), 9834166910308413898ull);

  EXPECT_EQ(make_config().hash(), 14796513398446533610ull);
}

TEST(ConfigurationHash, HasNoCollisionsOverADenseGrid) {
  // Collision sanity: 4096 distinct small configurations (the shape real
  // spaces produce: few parameters, small integer values) must map to
  // 4096 distinct hashes. FNV-1a's avalanche is weak in theory; this
  // checks it holds up on the actual input distribution.
  std::set<std::uint64_t> seen;
  for (int a = 0; a < 16; ++a) {
    for (int b = 0; b < 16; ++b) {
      for (int c = 0; c < 16; ++c) {
        atf::configuration config;
        config.add("A", atf::to_tp_value<int>(a));
        config.add("B", atf::to_tp_value<int>(b));
        config.add("C", atf::to_tp_value<int>(c));
        seen.insert(config.hash());
      }
    }
  }
  EXPECT_EQ(seen.size(), 4096u);
}

TEST(Crc32, MatchesKnownVectors) {
  // The standard zlib CRC-32 check value.
  EXPECT_EQ(atf::common::crc32("123456789"), 0xCBF43926u);
  EXPECT_EQ(atf::common::crc32(""), 0x00000000u);
}

TEST(TuningRecord, RoundTripsThroughJson) {
  atf::configuration config = make_config();
  config.set_space_index(77);
  atf::session::tuning_record record =
      atf::session::tuning_record::from_configuration(config);
  record.valid = true;
  record.scalar = 1.0 / 3.0;
  record.cost = json::value(1.0 / 3.0);
  record.technique = "random_search";
  record.run_id = "run-3";
  record.sequence = 41;
  record.timestamp_ms = 1754300000000;

  const auto back = atf::session::record_from_json(to_json(record));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->config_hash, config.hash());
  EXPECT_EQ(back->to_configuration(), config);
  EXPECT_EQ(back->space_index, std::optional<std::uint64_t>{77});
  EXPECT_TRUE(back->valid);
  EXPECT_EQ(back->scalar, record.scalar);
  EXPECT_EQ(back->cost, record.cost);
  EXPECT_EQ(back->technique, "random_search");
  EXPECT_EQ(back->run_id, "run-3");
  EXPECT_EQ(back->sequence, 41u);
  EXPECT_EQ(back->timestamp_ms, 1754300000000);
  // The round-tripped configuration hashes identically — the property the
  // whole warm start rests on.
  EXPECT_EQ(back->to_configuration().hash(), config.hash());
}

TEST(TuningRecord, RoundTripsFailures) {
  atf::configuration config;
  config.add("x", atf::to_tp_value<int>(3));
  atf::session::tuning_record record =
      atf::session::tuning_record::from_configuration(config);
  record.valid = false;
  record.failure = "device hung";

  const auto back = atf::session::record_from_json(to_json(record));
  ASSERT_TRUE(back.has_value());
  EXPECT_FALSE(back->valid);
  EXPECT_EQ(back->failure, "device hung");
  EXPECT_TRUE(back->cost.is_null());
}

TEST(TuningRecord, RejectsMalformedObjects) {
  EXPECT_FALSE(atf::session::record_from_json(json::value(42)).has_value());
  EXPECT_FALSE(
      atf::session::record_from_json(json::parse("{}")).has_value());
  // A record whose value tag is unknown decodes to nothing rather than
  // guessing a type.
  EXPECT_FALSE(atf::session::record_from_json(
                   json::parse(R"({"type":"record","hash":"0",)"
                               R"("config":{"x":{"t":"?","v":"1"}},)"
                               R"("valid":true,"scalar":0})"))
                   .has_value());
}

}  // namespace
