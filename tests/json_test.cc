// Unit tests for the minimal JSON model used by the trace backend.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "util/json.h"

namespace dbdesign {
namespace {

TEST(JsonTest, BuildsAndDumpsDeterministically) {
  Json root = Json::Object();
  root["name"] = Json::Str("trace");
  root["version"] = Json::Number(1);
  Json arr = Json::Array();
  arr.Append(Json::Number(1.5));
  arr.Append(Json::Bool(true));
  arr.Append(Json::Null());
  root["items"] = std::move(arr);
  EXPECT_EQ(root.Dump(),
            "{\"items\":[1.5,true,null],\"name\":\"trace\",\"version\":1}");
}

TEST(JsonTest, ParsesDocument) {
  auto r = Json::Parse(R"({"a": [1, 2.5, "x"], "b": {"c": false}})");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  const Json& j = r.value();
  ASSERT_NE(j.Find("a"), nullptr);
  EXPECT_EQ(j.Find("a")->size(), 3u);
  EXPECT_DOUBLE_EQ(j.Find("a")->at(1).number(), 2.5);
  EXPECT_EQ(j.Find("a")->at(2).str(), "x");
  ASSERT_NE(j.Find("b"), nullptr);
  EXPECT_FALSE(j.Find("b")->Find("c")->bool_value());
  EXPECT_EQ(j.Find("missing"), nullptr);
}

TEST(JsonTest, RoundTripsStringsWithEscapes) {
  Json s = Json::Str("line1\nquote\" back\\slash \t end");
  auto r = Json::Parse(s.Dump());
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().str(), "line1\nquote\" back\\slash \t end");
}

TEST(JsonTest, RoundTripsDoublesExactly) {
  // %.17g must reproduce IEEE doubles bit-for-bit — the trace replay
  // guarantee rests on this.
  const double cases[] = {0.1, 1.0 / 3.0, 6.02214076e23, -2.5e-17,
                          123456789.123456789};
  for (double d : cases) {
    auto r = Json::Parse(Json::Number(d).Dump());
    ASSERT_TRUE(r.ok());
    EXPECT_EQ(r.value().number(), d);
  }
}

TEST(JsonTest, NonFiniteNumbersRoundTripViaSentinel) {
  // JSON has no Infinity/NaN. The old encoding dumped them as null,
  // which replayed as a type-confused value; they now round-trip
  // through tagged string sentinels.
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Json::Number(inf).Dump(), "\"__nonfinite:inf\"");
  EXPECT_EQ(Json::Number(-inf).Dump(), "\"__nonfinite:-inf\"");
  EXPECT_EQ(Json::Number(std::nan("")).Dump(), "\"__nonfinite:nan\"");

  auto pos = Json::Parse(Json::Number(inf).Dump());
  ASSERT_TRUE(pos.ok());
  ASSERT_TRUE(pos.value().is_number());
  EXPECT_EQ(pos.value().number(), inf);

  auto neg = Json::Parse(Json::Number(-inf).Dump());
  ASSERT_TRUE(neg.ok());
  ASSERT_TRUE(neg.value().is_number());
  EXPECT_EQ(neg.value().number(), -inf);

  auto nan = Json::Parse(Json::Number(std::nan("")).Dump());
  ASSERT_TRUE(nan.ok());
  ASSERT_TRUE(nan.value().is_number());
  EXPECT_TRUE(std::isnan(nan.value().number()));

  // Inside containers too (the shape a trace's cost map uses).
  Json obj = Json::Object();
  obj["cost"] = Json::Number(inf);
  auto round = Json::Parse(obj.Dump());
  ASSERT_TRUE(round.ok());
  ASSERT_NE(round.value().Find("cost"), nullptr);
  EXPECT_EQ(round.value().Find("cost")->number(), inf);

  // Unrecognized text in the tag namespace (e.g. a hand-edited
  // document) parses as a plain string instead of failing the load.
  auto foreign = Json::Parse("\"__nonfinite:bogus\"");
  ASSERT_TRUE(foreign.ok());
  ASSERT_TRUE(foreign.value().is_string());
  EXPECT_EQ(foreign.value().str(), "__nonfinite:bogus");
}

TEST(JsonTest, StringsInTheSentinelNamespaceStillRoundTrip) {
  // A real string payload that collides with the tag dumps behind an
  // escape marker and comes back as the same string — never as a
  // number.
  for (const char* payload :
       {"__nonfinite:inf", "__nonfinite:nan", "__nonfinite:esc:x",
        "__nonfinite:whatever"}) {
    Json s = Json::Str(payload);
    auto r = Json::Parse(s.Dump());
    ASSERT_TRUE(r.ok()) << payload;
    ASSERT_TRUE(r.value().is_string()) << payload;
    EXPECT_EQ(r.value().str(), payload);
  }
  // Untagged strings are untouched by the escape.
  EXPECT_EQ(Json::Str("nonfinite").Dump(), "\"nonfinite\"");
}

TEST(JsonTest, ParseErrorsAreStatuses) {
  EXPECT_FALSE(Json::Parse("{").ok());
  EXPECT_FALSE(Json::Parse("[1,]").ok());
  EXPECT_FALSE(Json::Parse("tru").ok());
  EXPECT_FALSE(Json::Parse("{} trailing").ok());
  EXPECT_FALSE(Json::Parse("\"unterminated").ok());
  EXPECT_EQ(Json::Parse("{").status().code(), StatusCode::kParseError);
}

TEST(JsonTest, JsonIntAcceptsIntegersInRange) {
  for (int v : {-3, 0, 7}) {
    Result<int> r = JsonInt(Json::Number(v), -3, 7, "id");
    ASSERT_TRUE(r.ok()) << r.status().ToString();
    EXPECT_EQ(r.value(), v);
  }
  Result<int> big = JsonInt(Json::Number(2147483647.0), 0,
                            std::numeric_limits<int>::max(), "id");
  ASSERT_TRUE(big.ok());
  EXPECT_EQ(big.value(), std::numeric_limits<int>::max());
}

TEST(JsonTest, JsonIntRejectsBeforeAnyCast) {
  const double inf = std::numeric_limits<double>::infinity();
  for (double d : {0.9, 2.7, -0.5, 1e300, -1e300, inf, -inf,
                   std::numeric_limits<double>::quiet_NaN()}) {
    Result<int> r = JsonInt(Json::Number(d), std::numeric_limits<int>::min(),
                            std::numeric_limits<int>::max(), "id");
    EXPECT_FALSE(r.ok()) << d;
  }
  EXPECT_EQ(JsonInt(Json::Number(0.9), 0, 9, "id").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(JsonInt(Json::Str("1"), 0, 9, "id").status().code(),
            StatusCode::kParseError);
  EXPECT_EQ(JsonInt(Json::Null(), 0, 9, "id").status().code(),
            StatusCode::kParseError);
  // Integral but out of range: the caller's bounds, not a parse error.
  EXPECT_EQ(JsonInt(Json::Number(-1), 0, 9, "id").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(JsonInt(Json::Number(10), 0, 9, "id").status().code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(JsonInt(Json::Number(2147483648.0), 0,
                    std::numeric_limits<int>::max(), "id")
                .status()
                .code(),
            StatusCode::kInvalidArgument);
  // The non-finite sentinel parses to a number that is still rejected.
  Result<Json> nan = Json::Parse(R"("__nonfinite:nan")");
  ASSERT_TRUE(nan.ok());
  EXPECT_FALSE(JsonInt(nan.value(), 0, 9, "id").ok());
}

TEST(JsonTest, ParsesUnicodeEscapes) {
  auto r = Json::Parse(R"("aAé")");
  ASSERT_TRUE(r.ok());
  EXPECT_EQ(r.value().str(), "aA\xC3\xA9");
}

}  // namespace
}  // namespace dbdesign
