#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdio>
#include <limits>
#include <random>
#include <stdexcept>
#include <string>
#include <vector>

#include "util/json.h"

namespace ednsm::util {
namespace {

// One-value documents written through JsonWriter's typed scalar calls; each
// must equal the Json(x).dump() of the same value.
std::string number_doc(double d) {
  std::string out;
  JsonWriter w(out);
  w.number(d);
  w.finish();
  return out;
}

std::string string_doc(std::string_view s) {
  std::string out;
  JsonWriter w(out);
  w.string(s);
  w.finish();
  return out;
}

std::string boolean_doc(bool b) {
  std::string out;
  JsonWriter w(out);
  w.boolean(b);
  w.finish();
  return out;
}

TEST(Json, ScalarsDump) {
  EXPECT_EQ(Json(nullptr).dump(), "null");
  EXPECT_EQ(Json(true).dump(), "true");
  EXPECT_EQ(Json(false).dump(), "false");
  EXPECT_EQ(Json(42).dump(), "42");
  EXPECT_EQ(Json(-3).dump(), "-3");
  EXPECT_EQ(Json(2.5).dump(), "2.5");
  EXPECT_EQ(Json("hi").dump(), "\"hi\"");
  EXPECT_EQ(boolean_doc(true), "true");
  EXPECT_EQ(boolean_doc(false), "false");
  EXPECT_EQ(number_doc(42), "42");
  EXPECT_EQ(string_doc("hi"), "\"hi\"");
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

// ---- parser nesting limit ----------------------------------------------------

std::string nested_arrays(std::size_t depth) {
  return std::string(depth, '[') + std::string(depth, ']');
}

std::string nested_objects(std::size_t depth) {
  std::string s;
  for (std::size_t i = 0; i < depth; ++i) s += "{\"k\":";
  s += "1";
  return s + std::string(depth, '}');
}

TEST(Json, ParseAcceptsNestingAtTheLimit) {
  const auto limit = static_cast<std::size_t>(Json::kMaxDepth);
  auto arrays = Json::parse(nested_arrays(limit));
  ASSERT_TRUE(arrays.has_value()) << arrays.error();
  EXPECT_EQ(arrays.value().dump(), nested_arrays(limit));
  auto objects = Json::parse(nested_objects(limit));
  ASSERT_TRUE(objects.has_value()) << objects.error();
  EXPECT_EQ(objects.value().dump(), nested_objects(limit));
}

TEST(Json, ParseRejectsNestingPastTheLimit) {
  const std::string error = "json: nesting deeper than " + std::to_string(Json::kMaxDepth);
  const auto limit = static_cast<std::size_t>(Json::kMaxDepth);
  for (const std::string& text :
       {nested_arrays(limit + 1), nested_objects(limit + 1), nested_arrays(1000000),
        std::string(1000000, '['), "[" + nested_objects(limit) + "]"}) {
    auto j = Json::parse(text);
    ASSERT_FALSE(j.has_value());
    EXPECT_EQ(j.error(), error);
  }
}

// ---- number format -------------------------------------------------------------

// How this layer formatted numbers before std::to_chars, kept as the
// reference: integral values below 1e15 with "%.0f", the rest with "%.17g".
std::string printf_number(double d) {
  if (std::isnan(d) || std::isinf(d)) return "null";
  char buf[64];
  if (d == std::floor(d) && std::abs(d) < 1e15) {
    std::snprintf(buf, sizeof buf, "%.0f", d);
  } else {
    std::snprintf(buf, sizeof buf, "%.17g", d);
  }
  return buf;
}

TEST(JsonNumbers, EdgeValuesMatchPrintf) {
  const double two53 = std::ldexp(1.0, 53);
  const double values[] = {0.0,
                           -0.0,
                           0.1,
                           -0.1,
                           0.5,
                           2.5,
                           1e15 - 1,
                           -(1e15 - 1),
                           1e15,
                           -1e15,
                           1e15 - 0.5,
                           1e15 + 0.5,
                           two53 + 1,
                           two53 + 2,
                           1e-300,
                           std::numeric_limits<double>::denorm_min(),
                           -std::numeric_limits<double>::denorm_min(),
                           DBL_MIN,
                           DBL_EPSILON,
                           DBL_MAX,
                           -DBL_MAX,
                           1e21,
                           1e-7,
                           0.30000000000000004,
                           372.90250000000003,
                           std::numeric_limits<double>::quiet_NaN(),
                           std::numeric_limits<double>::infinity(),
                           -std::numeric_limits<double>::infinity()};
  for (const double v : values) {
    EXPECT_EQ(Json(v).dump(), printf_number(v)) << std::hexfloat << v;
    EXPECT_EQ(number_doc(v), printf_number(v)) << std::hexfloat << v;
  }
  for (const auto& dump : {+[](double d) { return Json(d).dump(); }, +number_doc}) {
    EXPECT_EQ(dump(0.0), "0");
    EXPECT_EQ(dump(-0.0), "-0");
    EXPECT_EQ(dump(1e15), "1000000000000000");
    EXPECT_EQ(dump(1e15 - 1), "999999999999999");
    EXPECT_EQ(dump(std::numeric_limits<double>::quiet_NaN()), "null");
    EXPECT_EQ(dump(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(dump(-std::numeric_limits<double>::infinity()), "null");
  }
}

TEST(JsonNumbers, RandomBitPatternsMatchPrintf) {
  std::mt19937_64 rng(20250704);
  for (int i = 0; i < 100000; ++i) {
    const double d = std::bit_cast<double>(rng());
    ASSERT_EQ(Json(d).dump(), printf_number(d)) << std::hexfloat << d;
    ASSERT_EQ(number_doc(d), printf_number(d)) << std::hexfloat << d;
  }
  // Random bit patterns almost never land on the "%.0f" branch or on the
  // millisecond values result files hold; cover those explicitly.
  std::uniform_int_distribution<std::int64_t> integers(-999999999999999, 999999999999999);
  std::uniform_real_distribution<double> millis(0.0, 5000.0);
  for (int i = 0; i < 100000; ++i) {
    const auto n = static_cast<double>(integers(rng));
    ASSERT_EQ(Json(n).dump(), printf_number(n)) << n;
    ASSERT_EQ(number_doc(n), printf_number(n)) << n;
    const double ms = millis(rng);
    ASSERT_EQ(Json(ms).dump(), printf_number(ms)) << std::hexfloat << ms;
    ASSERT_EQ(number_doc(ms), printf_number(ms)) << std::hexfloat << ms;
  }
}

TEST(Json, EscapeEveryControlByte) {
  for (int c = 0; c < 0x20; ++c) {
    char expected[8];
    std::snprintf(expected, sizeof expected, "\\u%04x", c);
    std::string want = expected;
    if (c == '\b') want = "\\b";
    if (c == '\f') want = "\\f";
    if (c == '\n') want = "\\n";
    if (c == '\r') want = "\\r";
    if (c == '\t') want = "\\t";
    const std::string byte(1, static_cast<char>(c));
    EXPECT_EQ(json_escape(byte), want) << c;
    EXPECT_EQ(string_doc(byte), "\"" + want + "\"") << c;
    EXPECT_EQ(string_doc(byte), Json(byte).dump()) << c;
  }
  // DEL and UTF-8 pass through untouched.
  EXPECT_EQ(json_escape("\x7f caf\xc3\xa9 \xe2\x82\xac"), "\x7f caf\xc3\xa9 \xe2\x82\xac");
  EXPECT_EQ(string_doc("\x7f caf\xc3\xa9 \xe2\x82\xac"), "\"\x7f caf\xc3\xa9 \xe2\x82\xac\"");
  EXPECT_EQ(json_escape("plain"), "plain");
  EXPECT_EQ(json_escape(""), "");
  EXPECT_EQ(string_doc(""), "\"\"");
}

// ---- JsonWriter ---------------------------------------------------------------

// {"a": [1, {}, {"x": 1, "y": []}], "b": <string needing escapes>, "c": {}}
Json reference_document() {
  JsonObject inner;
  inner["x"] = Json(1);
  inner["y"] = Json(JsonArray{});
  JsonObject o;
  o["a"] = Json(JsonArray{Json(1), Json(JsonObject{}), Json(inner)});
  o["b"] = Json("q\"b\\s\x01 caf\xc3\xa9");
  o["c"] = Json(JsonObject{});
  return Json(std::move(o));
}

void stream_reference_document(JsonWriter& w) {
  JsonObject inner;
  inner["x"] = Json(1);
  inner["y"] = Json(JsonArray{});
  w.begin_object();
  w.key("a");
  w.begin_array();
  w.number(1);
  w.begin_object();
  w.end_object();
  w.value(Json(inner));
  w.end_array();
  w.key("b");
  w.string("q\"b\\s\x01 caf\xc3\xa9");
  w.key("c");
  w.begin_object();
  w.end_object();
  w.end_object();
  w.finish();
}

TEST(JsonWriter, StreamedDocumentMatchesDump) {
  for (const int indent : {0, 2, 4}) {
    std::string out;
    JsonWriter w(out, indent);
    stream_reference_document(w);
    EXPECT_EQ(out, reference_document().dump(indent)) << "indent " << indent;
  }
}

TEST(JsonWriter, EmptyContainersMatchDump) {
  for (const int indent : {0, 2}) {
    std::string arr;
    JsonWriter wa(arr, indent);
    wa.begin_array();
    wa.end_array();
    wa.finish();
    EXPECT_EQ(arr, "[]");
    std::string obj;
    JsonWriter wo(obj, indent);
    wo.begin_object();
    wo.end_object();
    wo.finish();
    EXPECT_EQ(obj, "{}");
    std::string nested;
    JsonWriter wn(nested, indent);
    wn.begin_array();
    wn.begin_array();
    wn.end_array();
    wn.begin_object();
    wn.end_object();
    wn.end_array();
    wn.finish();
    EXPECT_EQ(nested, Json(JsonArray{Json(JsonArray{}), Json(JsonObject{})}).dump(indent));
  }
}

TEST(JsonWriter, KeysMustAscendLikeAJsonObject) {
  std::string out;
  JsonWriter w(out);
  w.begin_object();
  w.key("b");
  w.value(1);
  EXPECT_THROW(w.key("a"), std::logic_error);  // out of order
  EXPECT_THROW(w.key("b"), std::logic_error);  // duplicate
  w.key("ba");
  w.value(2);
  w.key("caf\xc3\xa9");  // bytes compare unsigned, as std::string does
  w.value(3);
  w.key("\xe2\x82\xac");
  w.value(4);
  w.end_object();
  w.finish();
  JsonObject o;
  o["b"] = Json(1);
  o["ba"] = Json(2);
  o["caf\xc3\xa9"] = Json(3);
  o["\xe2\x82\xac"] = Json(4);
  EXPECT_EQ(out, Json(o).dump());

  // Sibling objects order their keys independently: the second may start
  // below the first one's last key.
  std::string siblings;
  JsonWriter ws(siblings);
  ws.begin_array();
  for (const char* k : {"z", "a"}) {
    ws.begin_object();
    ws.key(k);
    ws.boolean(true);
    ws.end_object();
  }
  ws.end_array();
  ws.finish();
  EXPECT_EQ(siblings, "[{\"z\":true},{\"a\":true}]");
}

TEST(JsonWriter, RejectsUnbalancedAndMisplacedCalls) {
  const auto fresh = [](auto&& calls) {
    std::string out;
    JsonWriter w(out);
    calls(w);
  };
  EXPECT_THROW(fresh([](JsonWriter& w) { w.end_array(); }), std::logic_error);
  EXPECT_THROW(fresh([](JsonWriter& w) { w.end_object(); }), std::logic_error);
  EXPECT_THROW(fresh([](JsonWriter& w) {
                 w.begin_array();
                 w.end_object();
               }),
               std::logic_error);
  EXPECT_THROW(fresh([](JsonWriter& w) {
                 w.begin_object();
                 w.end_array();
               }),
               std::logic_error);
  EXPECT_THROW(fresh([](JsonWriter& w) {
                 w.begin_object();
                 w.end_object();
                 w.end_object();
               }),
               std::logic_error);
  EXPECT_THROW(fresh([](JsonWriter& w) { w.key("k"); }), std::logic_error);
  EXPECT_THROW(fresh([](JsonWriter& w) {
                 w.begin_array();
                 w.key("k");
               }),
               std::logic_error);
  EXPECT_THROW(fresh([](JsonWriter& w) {
                 w.begin_object();
                 w.value(1);  // a key is due
               }),
               std::logic_error);
  EXPECT_THROW(fresh([](JsonWriter& w) {
                 w.begin_object();
                 w.key("a");
                 w.key("b");  // a value is due
               }),
               std::logic_error);
  EXPECT_THROW(fresh([](JsonWriter& w) {
                 w.begin_object();
                 w.key("a");
                 w.end_object();
               }),
               std::logic_error);
  EXPECT_THROW(fresh([](JsonWriter& w) {
                 w.value(1);
                 w.value(2);
               }),
               std::logic_error);
  EXPECT_THROW(fresh([](JsonWriter& w) { w.finish(); }), std::logic_error);
  EXPECT_THROW(fresh([](JsonWriter& w) {
                 w.begin_array();
                 w.finish();
               }),
               std::logic_error);
}

TEST(JsonWriter, StreamsToItsSinkInChunks) {
  std::vector<std::string> chunks;
  JsonWriter w([&chunks](std::string_view s) { chunks.emplace_back(s); }, 2);
  JsonArray reference;
  w.begin_array();
  for (int i = 0; i < 20000; ++i) {
    JsonObject e;
    e["i"] = Json(i);
    e["s"] = Json("element");
    w.value(Json(e));
    reference.emplace_back(std::move(e));
  }
  w.end_array();
  const std::size_t before_finish = chunks.size();
  w.finish();
  ASSERT_GE(before_finish, 3u);  // chunks went out before the document ended
  std::string joined;
  for (std::size_t i = 0; i < chunks.size(); ++i) {
    if (i + 1 < chunks.size()) {
      EXPECT_GE(chunks[i].size(), JsonWriter::kChunkBytes);
    }
    joined += chunks[i];
  }
  EXPECT_EQ(joined, Json(std::move(reference)).dump(2));
}

}  // namespace
}  // namespace ednsm::util
