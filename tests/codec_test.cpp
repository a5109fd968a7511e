// codec_test — the one JSON codec behind every config fingerprint and
// journal record (common/codec.hpp), and the exact integers it rests on.
//
// Integers must survive exactly: a seed above 2^53 used to come back from
// a journal header rounded through a double, so a resumed chaos or
// propcheck run quietly ran under a different seed. The strict reader must
// name every member it cannot read, and reject negative, fractional and
// out-of-range integers by field name instead of casting them.
#include <gtest/gtest.h>

#include <array>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <memory>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/substitution.hpp"
#include "chaos/campaign.hpp"
#include "chaos/supervised.hpp"
#include "common/codec.hpp"
#include "common/json.hpp"
#include "gen/campaign.hpp"
#include "gen/supervised.hpp"
#include "resilience/journal.hpp"
#include "test_helpers.hpp"

namespace wsx {

namespace codec_fixture {

enum class Color { kRed, kBlue };

const char* to_string(Color color) { return color == Color::kRed ? "red" : "blue"; }

bool from_string(std::string_view text, Color& out) {
  if (text == "red" || text == "blue") {
    out = text == "red" ? Color::kRed : Color::kBlue;
    return true;
  }
  return false;
}

struct Inner {
  std::uint64_t count = 0;
  std::string name;
};

template <class V>
void fields(V& v, Inner& inner) {
  v("count", inner.count);
  v("name", inner.name);
}

struct Outer {
  bool flag = false;
  int offset = 0;
  unsigned small = 0;
  Color color = Color::kRed;
  Color ordinal_color = Color::kRed;
  std::array<std::size_t, 2> pair{};
  std::vector<Inner> items;
  std::map<std::string, Color> palette;
  std::unique_ptr<Inner> extra;
};

template <class V>
void fields(V& v, Outer& outer) {
  v("version", codec::Fixed{std::size_t{2}});
  v("flag", outer.flag);
  v("offset", outer.offset);
  v("small", outer.small);
  v("color", outer.color);
  v("ordinal", codec::Ordinal{outer.ordinal_color, 2});
  v("pair", outer.pair);
  v("items", outer.items);
  v("palette", outer.palette);
  v("extra", outer.extra);
}

struct Rows {
  std::span<Inner> rows;
};

template <class V>
void fields(V& v, Rows& rows) {
  v("rows", rows.rows);
}

}  // namespace codec_fixture

namespace {

using codec_fixture::Color;
using codec_fixture::Inner;
using codec_fixture::Outer;

Status decode_outer(std::string_view text, Outer& out) {
  return codec::decode(text, out, "test.bad", "outer");
}

// --------------------------------------------------------------- integers

TEST(JsonIntegers, TheLargestUnsignedRoundTrips) {
  for (const char* text : {"18446744073709551615", "9007199254740993", "-9223372036854775808",
                           "0", "-0", "[9007199254740993,1,-2]"}) {
    const Result<json::Value> parsed = json::parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_EQ(json::to_text(*parsed), std::string(text) == "-0" ? "0" : text);
  }
  const Result<json::Value> max = json::parse("18446744073709551615");
  ASSERT_TRUE(max->is_integer());
  EXPECT_EQ(max->magnitude(), UINT64_MAX);
  EXPECT_FALSE(max->is_negative());
}

TEST(JsonIntegers, OnlyIntegerTokensThatFitAreExact) {
  for (const char* text : {"18446744073709551616", "1.5", "1e3", "-1.0"}) {
    const Result<json::Value> parsed = json::parse(text);
    ASSERT_TRUE(parsed.ok()) << text;
    EXPECT_TRUE(parsed->is_number()) << text;
    EXPECT_FALSE(parsed->is_integer()) << text;
  }
  EXPECT_EQ(json::parse("42")->as_number(), 42.0);
}

// ------------------------------------------------------------ the codec

TEST(Codec, EncodesInDeclarationOrderAndRoundTrips) {
  Outer outer;
  outer.flag = true;
  outer.offset = -7;
  outer.small = 4000000000u;
  outer.color = Color::kBlue;
  outer.ordinal_color = Color::kBlue;
  outer.pair = {3, 18446744073709551615ull};
  outer.items = {{9007199254740993ull, "a\"b"}, {0, ""}};
  outer.palette = {{"x", Color::kRed}, {"y", Color::kBlue}};
  const std::string text = codec::encode(outer);
  EXPECT_EQ(text,
            R"({"version":2,"flag":true,"offset":-7,"small":4000000000,"color":"blue",)"
            R"("ordinal":1,"pair":[3,18446744073709551615],"items":[{"count":9007199254740993,)"
            R"("name":"a\"b"},{"count":0,"name":""}],"palette":{"x":"red","y":"blue"}})");
  Outer back;
  ASSERT_TRUE(decode_outer(text, back).ok());
  EXPECT_EQ(codec::encode(back), text);
  EXPECT_EQ(back.items[0].count, 9007199254740993ull);
  EXPECT_EQ(back.extra, nullptr);

  outer.extra = std::make_unique<Inner>(Inner{1, "z"});
  const std::string with_extra = codec::encode(outer);
  EXPECT_NE(with_extra.find(R"("extra":{"count":1,"name":"z"})"), std::string::npos);
  ASSERT_TRUE(decode_outer(with_extra, back).ok());
  ASSERT_NE(back.extra, nullptr);
  EXPECT_EQ(codec::encode(back), with_extra);
}

TEST(Codec, OneErrorNamesEveryMissingAndMistypedMember) {
  Outer out;
  const Status status = decode_outer(
      R"({"version":2,"flag":1,"color":"green","pair":[1],"items":[{"count":"x"}],)"
      R"("ordinal":2,"palette":{"x":3}})",
      out);
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.error().code, "test.bad");
  const std::string& message = status.error().message;
  EXPECT_EQ(message.rfind("outer: ", 0), 0u) << message;
  for (const char* problem :
       {"'flag' is not a boolean", "missing 'offset'", "missing 'small'",
        "'color' has unknown value \"green\"", "'ordinal' is not an index below 2",
        "'pair' has 1 items, expected 2", "'items[0].count' is not an integer",
        "missing 'items[0].name'", "'palette.x' is not a string"}) {
    EXPECT_NE(message.find(problem), std::string::npos) << problem << " in: " << message;
  }
}

TEST(Codec, RejectsNegativeFractionalAndOutOfRangeIntegersByName) {
  const auto error_for = [](const std::string& small) {
    Outer out;
    const Status status = decode_outer(
        R"({"version":2,"flag":true,"offset":0,"small":)" + small +
            R"(,"color":"red","ordinal":0,"pair":[1,2],"items":[],"palette":{}})",
        out);
    return status.ok() ? std::string{} : status.error().message;
  };
  EXPECT_EQ(error_for("7"), "");
  for (const char* bad : {"-1", "1.5", "4294967296", "18446744073709551616", "\"7\""}) {
    EXPECT_NE(error_for(bad).find("'small' is not an integer in [0, 4294967295]"),
              std::string::npos)
        << bad << ": " << error_for(bad);
  }
}

TEST(Codec, FixedMembersMustMatch) {
  Outer out;
  const Status status = decode_outer(
      R"({"version":3,"flag":true,"offset":0,"small":0,"color":"red","ordinal":0,)"
      R"("pair":[1,2],"items":[],"palette":{}})",
      out);
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("'version' must be 2"), std::string::npos);
}

TEST(Codec, SpansReadInPlaceAllOrNone) {
  std::vector<Inner> slots(2);
  codec_fixture::Rows rows{slots};
  ASSERT_TRUE(codec::decode(R"({"rows":[{"count":5,"name":"p"},{"count":6,"name":"q"}]})", rows,
                            "test.bad", "rows")
                  .ok());
  ASSERT_EQ(rows.rows.size(), 2u);
  EXPECT_EQ(rows.rows.data(), slots.data());
  EXPECT_EQ(slots[1].count, 6u);
  EXPECT_EQ(codec::encode(rows), R"({"rows":[{"count":5,"name":"p"},{"count":6,"name":"q"}]})");

  codec_fixture::Rows none{slots};
  ASSERT_TRUE(codec::decode(R"({"rows":[]})", none, "test.bad", "rows").ok());
  EXPECT_TRUE(none.rows.empty());

  codec_fixture::Rows one{std::span(slots).first(1)};
  const Status status = codec::decode(R"({"rows":[{"count":5,"name":"p"},{"count":6,"name":"q"}]})",
                                      one, "test.bad", "rows");
  ASSERT_FALSE(status.ok());
  EXPECT_NE(status.error().message.find("'rows' has 2 items, expected 0 or 1"),
            std::string::npos);
}

TEST(Codec, NonObjectsAndMalformedTextFailUnderTheCallersCode) {
  Outer out;
  for (const char* text : {"", "nope", "[]", "7", "{\"version\":2"}) {
    const Status status = decode_outer(text, out);
    ASSERT_FALSE(status.ok()) << text;
    EXPECT_EQ(status.error().code, "test.bad") << text;
  }
}

// ---------------------------------------------------- config fingerprints

TEST(ConfigCodec, ConfigIntegerFieldsRejectBadValuesByName) {
  chaos::ChaosConfig config;
  const std::string good = chaos::chaos_config_json(config);
  ASSERT_TRUE(chaos::chaos_config_from_json(good).ok());
  const std::string seed = "\"seed\":" + std::to_string(config.plan.seed);
  ASSERT_NE(good.find(seed), std::string::npos);
  for (const char* bad : {"-1", "1.5", "18446744073709551616"}) {
    std::string text = good;
    text.replace(text.find(seed), seed.size(), std::string("\"seed\":") + bad);
    const Result<chaos::ChaosConfig> parsed = chaos::chaos_config_from_json(text);
    ASSERT_FALSE(parsed.ok()) << bad;
    EXPECT_EQ(parsed.error().code, "resilience.bad-config");
    EXPECT_NE(parsed.error().message.find("'seed'"), std::string::npos)
        << parsed.error().message;
  }
}

TEST(ConfigCodec, SeedsAboveTwoToTheFiftyThreeSurviveTheJournalHeader) {
  chaos::ChaosConfig chaos_config;
  chaos_config.plan.seed = 9007199254740993ull;
  gen::GenConfig gen_config;
  gen_config.corpus.seed = 18446744073709551615ull;
  resilience::Journal journal;
  journal.campaign = "chaos";
  journal.config_json = chaos::chaos_config_json(chaos_config);
  Result<resilience::Journal> parsed = resilience::Journal::parse(journal.header_line());
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(parsed->config_json, journal.config_json);
  EXPECT_EQ(chaos::chaos_config_from_json(parsed->config_json)->plan.seed, 9007199254740993ull);

  journal.config_json = gen::gen_config_json(gen_config);
  parsed = resilience::Journal::parse(journal.header_line());
  ASSERT_TRUE(parsed.ok()) << parsed.error().message;
  EXPECT_EQ(gen::gen_config_from_json(parsed->config_json)->corpus.seed,
            18446744073709551615ull);
}

TEST(ConfigCodec, SubstitutionIndexVersionAndVerdictCountAreChecked) {
  using analysis::predict::index_from_json;
  const Result<analysis::predict::SubstitutionIndex> wrong_version =
      index_from_json(R"({"version":2,"clients":[],"entries":[]})");
  ASSERT_FALSE(wrong_version.ok());
  EXPECT_EQ(wrong_version.error().code, "predict.bad-index");
  EXPECT_NE(wrong_version.error().message.find("'version' must be 1"), std::string::npos);
  const Result<analysis::predict::SubstitutionIndex> short_verdicts = index_from_json(
      R"({"version":1,"clients":["a","b"],"entries":[{"server":"S","service":"E",)"
      R"("type":"T","fingerprint":"f","operations":[],"verdicts":["ok"]}]})");
  ASSERT_FALSE(short_verdicts.ok());
  EXPECT_EQ(short_verdicts.error().code, "predict.bad-index");
}

// ------------------------------------------- resuming above 2^53, end to end

struct ScratchFile {
  std::string path;
  explicit ScratchFile(const std::string& name) : path(::testing::TempDir() + name) {
    std::remove(path.c_str());
  }
  ~ScratchFile() { std::remove(path.c_str()); }
  std::string read() const {
    std::ostringstream buffer;
    buffer << std::ifstream(path).rdbuf();
    return buffer.str();
  }
};

constexpr std::uint64_t kBigSeed = 9007199254740993ull;  // 2^53 + 1

TEST(BigSeedResume, ChaosResumesUnderTheSameSeed) {
  chaos::ChaosConfig config;
  config.java_spec = testing::small_java_spec();
  config.dotnet_spec = testing::small_dotnet_spec();
  config.plan.seed = kBigSeed;
  config.calls_per_pair = 2;
  config.jobs = 2;
  const std::string want = chaos::chaos_csv(chaos::run_chaos_study(config));

  ScratchFile journal_file("wsx_codec_big_seed_chaos.journal");
  resilience::Supervision tripped;
  tripped.journal.checkpoint_every = 4;
  tripped.checkpoint_path = journal_file.path;
  tripped.trip_after_tasks = 5;
  ASSERT_TRUE(chaos::run_chaos_supervised(config, tripped)->supervisor.tripped);

  Result<resilience::Journal> journal = resilience::Journal::parse(journal_file.read());
  ASSERT_TRUE(journal.ok()) << journal.error().message;
  Result<chaos::ChaosConfig> rederived = chaos::chaos_config_from_json(journal->config_json);
  ASSERT_TRUE(rederived.ok()) << rederived.error().message;
  EXPECT_EQ(rederived->plan.seed, kBigSeed);
  rederived->jobs = 2;
  resilience::Supervision resumed = tripped;
  resumed.trip_after_tasks = 0;
  resumed.resume = &journal.value();
  Result<chaos::SupervisedChaosResult> finished = chaos::run_chaos_supervised(*rederived, resumed);
  ASSERT_TRUE(finished.ok()) << finished.error().message;
  EXPECT_GT(finished->supervisor.resumed, 0u);
  EXPECT_EQ(chaos::chaos_csv(finished->chaos), want);
}

TEST(BigSeedResume, PropcheckResumesUnderTheSameSeed) {
  gen::GenConfig config;
  config.java_spec = testing::small_java_spec();
  config.dotnet_spec = testing::small_dotnet_spec();
  config.corpus.seed = kBigSeed;
  config.corpus.cases_per_operation = 1;
  config.jobs = 2;
  const std::string want = gen::propcheck_json(gen::run_propcheck(config));

  ScratchFile journal_file("wsx_codec_big_seed_propcheck.journal");
  resilience::Supervision tripped;
  tripped.journal.checkpoint_every = 4;
  tripped.checkpoint_path = journal_file.path;
  tripped.trip_after_tasks = 5;
  ASSERT_TRUE(gen::run_propcheck_supervised(config, tripped)->supervisor.tripped);

  Result<resilience::Journal> journal = resilience::Journal::parse(journal_file.read());
  ASSERT_TRUE(journal.ok()) << journal.error().message;
  Result<gen::GenConfig> rederived = gen::gen_config_from_json(journal->config_json);
  ASSERT_TRUE(rederived.ok()) << rederived.error().message;
  EXPECT_EQ(rederived->corpus.seed, kBigSeed);
  rederived->jobs = 2;
  resilience::Supervision resumed = tripped;
  resumed.trip_after_tasks = 0;
  resumed.resume = &journal.value();
  Result<gen::SupervisedGenResult> finished = gen::run_propcheck_supervised(*rederived, resumed);
  ASSERT_TRUE(finished.ok()) << finished.error().message;
  EXPECT_GT(finished->supervisor.resumed, 0u);
  EXPECT_EQ(gen::propcheck_json(finished->propcheck), want);
}

}  // namespace
}  // namespace wsx
