/**
 * @file
 * util::JsonWriter — escaping, number formatting, and structural
 * correctness checked by re-parsing everything it emits — and the parsed
 * value's checked integer accessor.
 */

#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <sstream>

#include <gtest/gtest.h>

#include "common/json_checker.h"
#include "util/json.h"

using shiftpar::testing::parse_json;
using shiftpar::util::json_escape;
using shiftpar::util::json_number;
using shiftpar::util::JsonWriter;

TEST(JsonEscape, ControlAndSpecialCharacters)
{
    EXPECT_EQ(json_escape("plain"), "plain");
    EXPECT_EQ(json_escape("a\"b"), "a\\\"b");
    EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
    EXPECT_EQ(json_escape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(json_escape(std::string("\x01", 1)), "\\u0001");
}

TEST(JsonNumber, RoundTripsDoubles)
{
    for (const double v : {0.0, 1.0, -2.5, 0.1, 1e-9, 3.141592653589793,
                           1.7976931348623157e308}) {
        const std::string tok = json_number(v);
        EXPECT_DOUBLE_EQ(std::strtod(tok.c_str(), nullptr), v) << tok;
    }
}

TEST(JsonNumber, NonFiniteBecomesNull)
{
    EXPECT_EQ(json_number(std::nan("")), "null");
    EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
    EXPECT_EQ(json_number(-std::numeric_limits<double>::infinity()), "null");
}

TEST(JsonWriter, NestedDocumentParsesBack)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object()
        .kv("name", "run \"a\"")
        .kv("count", std::int64_t{42})
        .kv("ratio", 0.25)
        .kv("ok", true)
        .key("missing")
        .null()
        .key("series")
        .begin_array()
        .value(1.0)
        .value(2.0)
        .begin_object()
        .kv("nested", "yes")
        .end_object()
        .end_array()
        .end_object();
    ASSERT_TRUE(w.complete());

    const auto doc = parse_json(os.str());
    EXPECT_EQ(doc.at("name").str(), "run \"a\"");
    EXPECT_EQ(doc.at("count").num(), 42.0);
    EXPECT_EQ(doc.at("ratio").num(), 0.25);
    EXPECT_TRUE(doc.at("ok").boolean());
    EXPECT_TRUE(doc.at("missing").is_null());
    ASSERT_EQ(doc.at("series").arr().size(), 3u);
    EXPECT_EQ(doc.at("series").arr()[2].at("nested").str(), "yes");
}

TEST(JsonWriter, RawSplicesAsOneValue)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object()
        .key("args")
        .raw("{\"tokens\":7}")
        .kv("after", 1)
        .end_object();
    ASSERT_TRUE(w.complete());
    const auto doc = parse_json(os.str());
    EXPECT_EQ(doc.at("args").at("tokens").num(), 7.0);
    EXPECT_EQ(doc.at("after").num(), 1.0);
}

TEST(JsonWriter, EmptyContainers)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.begin_object()
        .key("obj")
        .begin_object()
        .end_object()
        .key("arr")
        .begin_array()
        .end_array()
        .end_object();
    ASSERT_TRUE(w.complete());
    const auto doc = parse_json(os.str());
    EXPECT_TRUE(doc.at("obj").obj().empty());
    EXPECT_TRUE(doc.at("arr").arr().empty());
}

TEST(JsonWriter, PrettyOutputParsesIdentically)
{
    const auto build = [](JsonWriter& w) {
        w.begin_object()
            .key("runs")
            .begin_array()
            .begin_object()
            .kv("name", "a")
            .kv("x", 1.5)
            .end_object()
            .end_array()
            .end_object();
    };
    std::ostringstream compact, pretty;
    JsonWriter wc(compact), wp(pretty, /*pretty=*/true);
    build(wc);
    build(wp);
    ASSERT_TRUE(wc.complete());
    ASSERT_TRUE(wp.complete());
    EXPECT_NE(compact.str(), pretty.str());

    const auto a = parse_json(compact.str());
    const auto b = parse_json(pretty.str());
    EXPECT_EQ(a.at("runs").arr()[0].at("name").str(),
              b.at("runs").arr()[0].at("name").str());
    EXPECT_EQ(a.at("runs").arr()[0].at("x").num(),
              b.at("runs").arr()[0].at("x").num());
}

TEST(JsonWriter, TopLevelScalar)
{
    std::ostringstream os;
    JsonWriter w(os);
    w.value("hello");
    EXPECT_TRUE(w.complete());
    EXPECT_EQ(parse_json(os.str()).str(), "hello");
}

TEST(JsonValue, IntegerAcceptsOnlyIntegralNumbersInRange)
{
    EXPECT_EQ(parse_json("42").integer(), 42);
    EXPECT_EQ(parse_json("-7").integer<int>(), -7);
    EXPECT_EQ(parse_json("2147483647").integer<int>(), 2147483647);
    EXPECT_EQ(parse_json("-2147483648").integer<int>(),
              std::numeric_limits<int>::min());
    EXPECT_EQ(parse_json("-9223372036854775808").integer(),
              std::numeric_limits<std::int64_t>::min());
    EXPECT_THROW(parse_json("2147483648").integer<int>(), std::runtime_error);
    EXPECT_THROW(parse_json("9223372036854775808").integer(),
                 std::runtime_error);
    EXPECT_THROW(parse_json("1e300").integer(), std::runtime_error);
    EXPECT_THROW(parse_json("-1e30").integer(), std::runtime_error);
    EXPECT_THROW(parse_json("1.5").integer(), std::runtime_error);
}
