#include <gtest/gtest.h>

#include <cmath>

#include "util/json.h"

namespace ednsm::util {
namespace {

TEST(Json, ScalarsDump) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-3).dump(), "-3");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
}

TEST(Json, NanBecomesNull) {
  EXPECT_EQ(Json(std::nan("")).dump(), "null");
}

TEST(Json, EscapeSpecials) {
  EXPECT_EQ(json_escape("a\"b\\c\nd\te"), "a\\\"b\\\\c\\nd\\te");
  EXPECT_EQ(json_escape(std::string(1, '\x01')), "\\u0001");
}

TEST(Json, ArrayAndObjectDump) {
  JsonArray arr = {Json(1), Json("two"), Json(nullptr)};
  EXPECT_EQ(Json(arr).dump(), "[1,\"two\",null]");
  JsonObject obj;
  obj["b"] = Json(2);
  obj["a"] = Json(1);
  EXPECT_EQ(Json(obj).dump(), "{\"a\":1,\"b\":2}");  // sorted keys
}

TEST(Json, PrettyPrint) {
  JsonObject obj;
  obj["k"] = Json(JsonArray{Json(1)});
  const std::string pretty = Json(obj).dump(2);
  EXPECT_NE(pretty.find("\n  \"k\": [\n    1\n  ]\n"), std::string::npos);
}

TEST(Json, EmptyContainers) {
  EXPECT_EQ(Json(JsonArray{}).dump(2), "[]");
  EXPECT_EQ(Json(JsonObject{}).dump(2), "{}");
}

TEST(Json, ParseScalars) {
  EXPECT_EQ(Json::parse("null").value(), Json(nullptr));
  EXPECT_EQ(Json::parse("true").value(), Json(true));
  EXPECT_EQ(Json::parse("false").value(), Json(false));
  EXPECT_EQ(Json::parse("3.5").value(), Json(3.5));
  EXPECT_EQ(Json::parse("-17").value(), Json(-17));
  EXPECT_EQ(Json::parse("1e3").value(), Json(1000.0));
  EXPECT_EQ(Json::parse("\"s\"").value(), Json("s"));
}

TEST(Json, ParseNested) {
  auto j = Json::parse(R"({"a": [1, {"b": "x"}], "c": null})");
  ASSERT_TRUE(j.has_value()) << j.error();
  EXPECT_EQ(j.value().at("a").as_array()[1].at("b").as_string(), "x");
  EXPECT_TRUE(j.value().at("c").is_null());
  EXPECT_TRUE(j.value().at("missing").is_null());
}

TEST(Json, ParseWhitespaceTolerant) {
  auto j = Json::parse("  {\n\t\"k\" :  1 , \"l\":[ ] }  ");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j.value().at("k").as_number(), 1.0);
}

TEST(Json, ParseEscapes) {
  auto j = Json::parse(R"("a\"b\\c\ndA")");
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j.value().as_string(), "a\"b\\c\ndA");
}

TEST(Json, ParseUnicodeEscapesUtf8) {
  auto j = Json::parse(R"("é€")");  // é + €
  ASSERT_TRUE(j.has_value());
  EXPECT_EQ(j.value().as_string(), "\xc3\xa9\xe2\x82\xac");
}

TEST(Json, ParseRejectsMalformed) {
  EXPECT_FALSE(Json::parse("").has_value());
  EXPECT_FALSE(Json::parse("{").has_value());
  EXPECT_FALSE(Json::parse("[1,]").has_value());
  EXPECT_FALSE(Json::parse("{\"a\" 1}").has_value());
  EXPECT_FALSE(Json::parse("{\"a\":1} extra").has_value());
  EXPECT_FALSE(Json::parse("\"unterminated").has_value());
  EXPECT_FALSE(Json::parse("nul").has_value());
  EXPECT_FALSE(Json::parse("01a").has_value());
  EXPECT_FALSE(Json::parse("\"bad \\q escape\"").has_value());
  EXPECT_FALSE(Json::parse("\"\\u12g4\"").has_value());
}

TEST(Json, RoundTripComplexDocument) {
  JsonObject o;
  o["name"] = Json("ednsm");
  o["count"] = Json(75);
  o["rate"] = Json(0.0575);
  o["ok"] = Json(true);
  o["tags"] = Json(JsonArray{Json("doh"), Json("dot"), Json("do53")});
  JsonObject nested;
  nested["x"] = Json(nullptr);
  o["meta"] = Json(std::move(nested));
  const Json original{std::move(o)};

  for (int indent : {0, 2, 4}) {
    auto round = Json::parse(original.dump(indent));
    ASSERT_TRUE(round.has_value());
    EXPECT_EQ(round.value(), original);
  }
}

TEST(Json, NumberPrecisionRoundTrips) {
  const double values[] = {0.1, 1.0 / 3.0, 1e-12, 123456789.123456, 5e15};
  for (double v : values) {
    auto parsed = Json::parse(Json(v).dump());
    ASSERT_TRUE(parsed.has_value());
    EXPECT_DOUBLE_EQ(parsed.value().as_number(), v);
  }
}

TEST(Json, TypePredicates) {
  EXPECT_TRUE(Json(nullptr).is_null());
  EXPECT_TRUE(Json(true).is_bool());
  EXPECT_TRUE(Json(1.0).is_number());
  EXPECT_TRUE(Json("s").is_string());
  EXPECT_TRUE(Json(JsonArray{}).is_array());
  EXPECT_TRUE(Json(JsonObject{}).is_object());
  EXPECT_FALSE(Json(1.0).is_string());
}

TEST(Json, AtOnNonObjectReturnsNull) {
  EXPECT_TRUE(Json(5).at("k").is_null());
}

}  // namespace
}  // namespace ednsm::util
