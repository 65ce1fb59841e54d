// The wire-protocol JSON library: strict parsing, UTF-8 validation,
// depth caps, and deterministic round-trip serialization.

#include "server/json.h"
#include "server/protocol.h"

#include <gtest/gtest.h>

#include <string>

namespace multilog::server {
namespace {

Json MustParse(const std::string& text) {
  Result<Json> r = Json::Parse(text);
  EXPECT_TRUE(r.ok()) << text << "\n" << r.status();
  return r.ok() ? *std::move(r) : Json();
}

TEST(JsonTest, ScalarRoundTrip) {
  EXPECT_EQ(MustParse("null").Serialize(), "null");
  EXPECT_EQ(MustParse("true").Serialize(), "true");
  EXPECT_EQ(MustParse("false").Serialize(), "false");
  EXPECT_EQ(MustParse("42").Serialize(), "42");
  EXPECT_EQ(MustParse("-7").Serialize(), "-7");
  EXPECT_EQ(MustParse("\"hi\"").Serialize(), "\"hi\"");
}

TEST(JsonTest, NumbersClassifyIntVsDouble) {
  EXPECT_TRUE(MustParse("42").is_int());
  EXPECT_TRUE(MustParse("4.5").is_number());
  EXPECT_FALSE(MustParse("4.5").is_int());
  EXPECT_DOUBLE_EQ(MustParse("4.5").number_value(), 4.5);
  EXPECT_TRUE(MustParse("1e3").is_number());
  // Beyond int64 range falls back to double instead of overflowing.
  EXPECT_FALSE(MustParse("99999999999999999999").is_int());
}

TEST(JsonTest, ObjectPreservesInsertionOrder) {
  Json obj = Json::Object();
  obj.Set("zebra", Json::Int(1));
  obj.Set("alpha", Json::Int(2));
  obj.Set("zebra", Json::Int(3));  // replaces in place, keeps position
  EXPECT_EQ(obj.Serialize(), "{\"zebra\":3,\"alpha\":2}");
}

TEST(JsonTest, NestedRoundTripIsByteStable) {
  const std::string text =
      "{\"a\":[1,2,{\"b\":null}],\"c\":\"x\\ny\",\"d\":true}";
  EXPECT_EQ(MustParse(text).Serialize(), text);
}

TEST(JsonTest, StringEscapes) {
  const Json j = MustParse("\"a\\u0041\\n\\t\\\\\\\"\\u00e9\"");
  EXPECT_EQ(j.string_value(), "aA\n\t\\\"\xc3\xa9");
  // Control characters re-escape on output.
  EXPECT_EQ(MustParse("\"\\u0001\"").Serialize(), "\"\\u0001\"");
}

TEST(JsonTest, SurrogatePairs) {
  const Json j = MustParse("\"\\ud83d\\ude00\"");  // U+1F600
  EXPECT_EQ(j.string_value(), "\xf0\x9f\x98\x80");
  // A lone surrogate escape is rejected.
  EXPECT_FALSE(Json::Parse("\"\\ud83d\"").ok());
}

TEST(JsonTest, RejectsMalformedDocuments) {
  for (const char* bad :
       {"", "  ", "{", "[1,", "{\"a\"}", "{\"a\":}", "tru", "nul", "01",
        "1.", "+1", "'a'", "{a:1}", "[1 2]", "{\"a\":1,}", "[1,]",
        "\"unterminated", "1 2", "{} {}", "[1]x"}) {
    EXPECT_FALSE(Json::Parse(bad).ok()) << "accepted: " << bad;
  }
}

TEST(JsonTest, RejectsInvalidUtf8) {
  // Bare continuation byte, overlong slash, stray surrogate, > U+10FFFF.
  EXPECT_FALSE(Json::Parse("\"\x80\"").ok());
  EXPECT_FALSE(Json::Parse("\"\xc0\xaf\"").ok());
  EXPECT_FALSE(Json::Parse("\"\xed\xa0\x80\"").ok());
  EXPECT_FALSE(Json::Parse("\"\xf4\x90\x80\x80\"").ok());
  EXPECT_FALSE(IsValidUtf8("\xff"));
  EXPECT_TRUE(IsValidUtf8("plain ascii"));
  EXPECT_TRUE(IsValidUtf8("\xc3\xa9\xe2\x82\xac\xf0\x9f\x98\x80"));
}

TEST(JsonTest, DepthCapStopsRunawayNesting) {
  std::string deep;
  for (int i = 0; i < 100; ++i) deep += "[";
  for (int i = 0; i < 100; ++i) deep += "]";
  EXPECT_FALSE(Json::Parse(deep).ok());
  // 32 levels is comfortably inside the cap.
  std::string fine;
  for (int i = 0; i < 32; ++i) fine += "[";
  for (int i = 0; i < 32; ++i) fine += "]";
  EXPECT_TRUE(Json::Parse(fine).ok());
}

TEST(JsonTest, LookupHelpers) {
  const Json j = MustParse("{\"s\":\"v\",\"n\":3,\"b\":true}");
  EXPECT_EQ(j.GetString("s"), "v");
  EXPECT_EQ(j.GetString("missing", "fb"), "fb");
  EXPECT_EQ(j.GetInt("n"), 3);
  EXPECT_EQ(j.GetInt("s", -1), -1);  // wrong kind -> fallback
  EXPECT_TRUE(j.GetBool("b"));
  ASSERT_NE(j.Find("n"), nullptr);
  EXPECT_EQ(j.Find("nope"), nullptr);
}

TEST(JsonTest, AppendIntMemberMatchesSetAndSerialize) {
  // The router splices members into relayed replies instead of
  // re-parsing them; the bytes must be what Json::Set would produce.
  for (const char* text : {"{}", R"({"ok":true,"answers":["{V=a}"]})"}) {
    Json j = MustParse(text);
    j.Set("shard", Json::Int(2));
    j.Set("id", Json::Int(-7));
    std::string spliced = text;
    AppendIntMember(&spliced, "shard", 2);
    AppendIntMember(&spliced, "id", -7);
    EXPECT_EQ(spliced, j.Serialize()) << text;
  }
}

}  // namespace
}  // namespace multilog::server
