// The hand-rolled JSON layer: construction, typed access, deterministic
// serialization, and a parse round trip over every value type. The number
// codec is pinned byte for byte against the printf encoding it replaced,
// and golden hashes pin whole result documents and a cache key, so any
// drift in the canonical bytes (and with it every cache key) shows here.

#include <gtest/gtest.h>

#include <bit>
#include <cfloat>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <random>
#include <string>
#include <vector>

#include "api/experiment.hpp"
#include "api/json.hpp"
#include "api/registry.hpp"
#include "api/result_cache.hpp"

namespace deproto::api {
namespace {

TEST(JsonTest, ScalarConstructionAndAccess) {
  EXPECT_TRUE(Json::null().is_null());
  EXPECT_TRUE(Json::boolean(true).as_bool());
  EXPECT_DOUBLE_EQ(Json::number(2.5).as_number(), 2.5);
  EXPECT_EQ(Json::string("hi").as_string(), "hi");
  EXPECT_EQ(Json::number(std::size_t{42}).as_size(), 42U);
  EXPECT_EQ(Json::number(std::uint64_t{7}).as_u64(), 7U);
}

TEST(JsonTest, TypeMismatchThrows) {
  EXPECT_THROW((void)Json::number(1.0).as_string(), JsonError);
  EXPECT_THROW((void)Json::string("x").as_number(), JsonError);
  EXPECT_THROW((void)Json::null().items(), JsonError);
  EXPECT_THROW((void)Json::number(2.5).as_u64(), JsonError);  // not integral
  EXPECT_THROW((void)Json::number(-1.0).as_u64(), JsonError);
  EXPECT_THROW((void)Json::number(2e19).as_u64(), JsonError);  // >= 2^64
}

TEST(JsonTest, ObjectPreservesInsertionOrderAndReplaces) {
  Json obj = Json::object();
  obj.set("b", Json::number(1.0));
  obj.set("a", Json::number(2.0));
  obj.set("b", Json::number(3.0));  // replace, keep position
  EXPECT_EQ(obj.size(), 2U);
  EXPECT_EQ(obj.dump(), R"({"b":3,"a":2})");
  EXPECT_TRUE(obj.contains("a"));
  EXPECT_FALSE(obj.contains("c"));
  EXPECT_THROW((void)obj.at("c"), JsonError);
  EXPECT_DOUBLE_EQ(obj.get_or("missing", 9.5), 9.5);
}

TEST(JsonTest, DumpFormats) {
  Json doc = Json::object();
  doc.set("xs", Json::array().push(Json::number(1.0)).push(Json::number(2.0)));
  doc.set("s", Json::string("a\"b\n"));
  EXPECT_EQ(doc.dump(), "{\"xs\":[1,2],\"s\":\"a\\\"b\\n\"}");
  EXPECT_EQ(doc.dump(2), "{\n  \"xs\": [\n    1,\n    2\n  ],\n"
                         "  \"s\": \"a\\\"b\\n\"\n}");
}

TEST(JsonTest, IntegersPrintWithoutDecimalPoint) {
  EXPECT_EQ(Json::number(1e6).dump(), "1000000");
  EXPECT_EQ(Json::number(0.25).dump(), "0.25");
  EXPECT_EQ(Json::number(-3.0).dump(), "-3");
}

TEST(JsonTest, NonFiniteNumbersSerializeAsNullAndReadBackAsNaN) {
  // One NaN metric must not abort serialization of a whole document: the
  // canonical encoding is null, and a numeric read of null is NaN.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_EQ(Json::number(nan).dump(), "null");
  EXPECT_EQ(Json::number(inf).dump(), "null");
  EXPECT_EQ(Json::number(-inf).dump(), "null");

  Json doc = Json::object();
  doc.set("good", Json::number(1.5));
  doc.set("bad", Json::number(nan));
  EXPECT_EQ(doc.dump(), R"({"good":1.5,"bad":null})");

  // Writer -> parser round trip: the field degrades, the document lives.
  const Json back = Json::parse(doc.dump());
  EXPECT_DOUBLE_EQ(back.at("good").as_number(), 1.5);
  EXPECT_TRUE(back.at("bad").is_null());
  EXPECT_TRUE(std::isnan(back.at("bad").as_number()));
  // An explicit null reads as NaN even through get_or -- substituting
  // the fallback would re-dump as a finite number, so parse -> re-dump
  // of a NaN field would not be idempotent (cache replays depend on it).
  EXPECT_TRUE(std::isnan(back.get_or("bad", -1.0)));
  EXPECT_DOUBLE_EQ(back.get_or("absent", -1.0), -1.0);
  // Integral reads of null still fail loudly -- NaN is not a count.
  EXPECT_THROW((void)back.at("bad").as_size(), JsonError);
}

TEST(JsonTest, NegativeZeroNormalizesToZero) {
  // Cache keys hash the compact dump, so the two doubles that compare
  // equal must print identical bytes ("%.0f" alone would emit "-0").
  EXPECT_EQ(Json::number(-0.0).dump(), "0");
  EXPECT_EQ(Json::number(0.0).dump(), "0");
  EXPECT_EQ(Json::number(-0.0).dump(), Json::number(0.0).dump());
  // The parser may hand back -0.0 (strtod keeps the sign); re-dumping
  // canonicalizes it away.
  EXPECT_EQ(Json::parse("-0").dump(), "0");
  EXPECT_EQ(Json::parse("-0.0").dump(), "0");
  EXPECT_EQ(Json::parse("[-0.0,0]").dump(), "[0,0]");
}

TEST(JsonTest, ParseRoundTripsEveryType) {
  const std::string text =
      R"({"a":[1,2.5,true,false,null],"b":{"nested":"stré"},"c":-1e-3})";
  const Json doc = Json::parse(text);
  EXPECT_DOUBLE_EQ(doc.at("c").as_number(), -1e-3);
  EXPECT_EQ(doc.at("a").elements().size(), 5U);
  EXPECT_TRUE(doc.at("a").elements()[4].is_null());
  EXPECT_EQ(doc.at("b").at("nested").as_string(), "str\xc3\xa9");
  // dump -> parse -> equal (deep equality).
  EXPECT_EQ(Json::parse(doc.dump()), doc);
  EXPECT_EQ(Json::parse(doc.dump(2)), doc);
}

TEST(JsonTest, ParseRejectsMalformedInput) {
  EXPECT_THROW((void)Json::parse(""), JsonError);
  EXPECT_THROW((void)Json::parse("{"), JsonError);
  EXPECT_THROW((void)Json::parse("[1,]"), JsonError);
  EXPECT_THROW((void)Json::parse("{\"a\":1} trailing"), JsonError);
  EXPECT_THROW((void)Json::parse("tru"), JsonError);
  EXPECT_THROW((void)Json::parse("\"unterminated"), JsonError);
  EXPECT_THROW((void)Json::parse("1.2.3"), JsonError);
  // Overflowing literals saturate to +-inf in strtod; accepting them
  // would let distinct documents alias under the canonical (null)
  // encoding of non-finite numbers.
  EXPECT_THROW((void)Json::parse("1e999"), JsonError);
  EXPECT_THROW((void)Json::parse("-1e999"), JsonError);
  // Lone surrogates would serialize to invalid UTF-8.
  EXPECT_THROW((void)Json::parse(R"("\ud800")"), JsonError);
  EXPECT_THROW((void)Json::parse(R"("\ud800x")"), JsonError);
}

/// The message of the JsonError that parsing `text` throws ("" if none).
std::string parse_error(const std::string& text) {
  try {
    (void)Json::parse(text);
  } catch (const JsonError& e) {
    return e.what();
  }
  return "";
}

TEST(JsonTest, ParseNumberEdgeCases) {
  // The accepted set is strtod's over the scanned lexeme: a leading '+'
  // parses, underflow rounds to zero instead of failing.
  EXPECT_EQ(Json::parse("+1").as_number(), 1.0);
  EXPECT_EQ(Json::parse("[+1,-2]").dump(), "[1,-2]");
  EXPECT_EQ(Json::parse("1e-400").as_number(), 0.0);
  EXPECT_EQ(Json::parse("4.9e-324").as_number(), 4.9e-324);
  EXPECT_EQ(Json::parse("1e+5").as_number(), 1e5);
  EXPECT_EQ(Json::parse(" -2.5 ").as_number(), -2.5);
  EXPECT_EQ(parse_error("1e999"),
            "json parse error at offset 5: number out of range");
  EXPECT_EQ(parse_error("-"), "json parse error at offset 1: bad number");
  EXPECT_EQ(parse_error("1.5.3"), "json parse error at offset 5: bad number");
  EXPECT_EQ(parse_error("+-1"), "json parse error at offset 3: bad number");
  // strtod alone would read these as 16 and -inf; the lexeme is "0"/"-".
  EXPECT_EQ(parse_error("0x10"),
            "json parse error at offset 1: trailing characters after "
            "document");
  EXPECT_EQ(parse_error("[0x1]"), "json parse error at offset 2: expected ']'");
  EXPECT_EQ(parse_error("-inf"), "json parse error at offset 1: bad number");
}

/// The encoder the to_chars codec replaced, kept as the reference.
std::string printf_number(double v) {
  if (!std::isfinite(v)) return "null";
  if (v == 0.0) return "0";
  char buf[32];
  if (v == std::floor(v) && std::abs(v) < 9.007199254740992e15) {
    std::snprintf(buf, sizeof(buf), "%.0f", v);
  } else {
    std::snprintf(buf, sizeof(buf), "%.17g", v);
  }
  return buf;
}

std::string encode(double v) {
  std::string out;
  append_json_number(out, v);
  return out;
}

TEST(JsonTest, NumberEncoderMatchesPrintfOnEdgeCases) {
  const double two53 = 9007199254740992.0;
  const std::vector<double> cases = {
      two53 - 1,  -(two53 - 1), two53,     -two53,    two53 + 2,
      -(two53 + 2), two53 * 2,  1.0,       -1.0,      -42.0,
      123456789.0, 1e15,        1e16,      1e22,      1e300,
      4.9e-324,   -4.9e-324,    DBL_MIN,   DBL_MAX,   -DBL_MAX,
      0.1,        1.0 / 3.0,    -2.0 / 3.0, 0.5,      2.5,
      1e-7,       123.456,      1e21 + 0.5, 0.0,      -0.0,
      std::numeric_limits<double>::quiet_NaN(),
      std::numeric_limits<double>::infinity(),
      -std::numeric_limits<double>::infinity()};
  for (const double v : cases) {
    EXPECT_EQ(encode(v), printf_number(v)) << printf_number(v);
    EXPECT_EQ(Json::number(v).dump(), printf_number(v));
  }
  EXPECT_EQ(encode(two53 - 1), "9007199254740991");
  EXPECT_EQ(encode(two53), "9007199254740992");
  EXPECT_EQ(encode(0.1), "0.10000000000000001");
  EXPECT_EQ(encode(-0.0), "0");
  // Appends; never replaces what the caller already wrote.
  std::string out = "[1,";
  append_json_number(out, 2.5);
  EXPECT_EQ(out, "[1,2.5");
}

TEST(JsonTest, NumberEncoderMatchesPrintfOnRandomDoubles) {
  std::mt19937_64 rng(20261021);
  std::uniform_int_distribution<std::int64_t> integer(-(std::int64_t{1} << 54),
                                                      std::int64_t{1} << 54);
  std::uniform_int_distribution<std::uint32_t> count(0, 1000000);
  std::size_t mismatches = 0;
  const auto check = [&](double v) {
    if (encode(v) != printf_number(v) && ++mismatches <= 5) {
      ADD_FAILURE() << "bits " << std::bit_cast<std::uint64_t>(v) << ": "
                    << encode(v) << " vs " << printf_number(v);
    }
  };
  for (int i = 0; i < 100000; ++i) {
    check(std::bit_cast<double>(rng()));  // every exponent, NaNs and infs
    check(static_cast<double>(integer(rng)));  // both sides of 2^53
    check(static_cast<double>(count(rng)) / 1000000.0);  // series fractions
  }
  EXPECT_EQ(mismatches, 0U);
}

TEST(JsonTest, ParseAcceptsSurrogatePairs) {
  // 😀 is the surrogate pair for U+1F600 (4-byte UTF-8).
  const Json escaped = Json::parse("\"\\ud83d\\ude00\"");
  EXPECT_EQ(escaped.as_string(), "\xf0\x9f\x98\x80");
  // Literal UTF-8 passes through untouched.
  EXPECT_EQ(Json::parse("\"\xf0\x9f\x98\x80\"").as_string(),
            "\xf0\x9f\x98\x80");
}

// Golden hashes of canonical bytes, computed with the printf encoder the
// codec replaced: results and cache keys must not move when the encoder
// does, or every existing cache directory would go cold.
TEST(JsonGoldenTest, CountResultDumpsArePinned) {
  const ScenarioSpec lv = registry_get("lv-majority-count").scaled_to(100000);
  EXPECT_EQ(sha256_hex(Experiment(lv).run().to_json(false).dump()),
            "8626024696d38332492b3dafcd113e7c8f82f00ebd6d6b6f2bebdddcf1658825");
  const ScenarioSpec endemic =
      registry_get("endemic-massive-failure-count").scaled_to(100000);
  EXPECT_EQ(sha256_hex(Experiment(endemic).run().to_json(false).dump()),
            "f8d07561dfdd78840424e13c6b7f2cdf3517e118bffdae998b57e9c329f11358");
}

TEST(JsonGoldenTest, CacheKeyIsPinned) {
  const std::filesystem::path dir =
      std::filesystem::path(testing::TempDir()) / "deproto-json-golden-cache";
  {
    const ResultCache cache(dir);
    EXPECT_EQ(
        cache.key_for(registry_get("lv-majority-count").scaled_to(100000)),
        "0e20679e9fe667532352e5c5014e931317b8c321f577dd6210c8178624e8142b");
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace deproto::api
