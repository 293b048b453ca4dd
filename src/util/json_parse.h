/**
 * @file
 * Minimal recursive-descent JSON parser.
 *
 * Started life as a test-only well-formedness checker for the observability
 * outputs; promoted into `util/` once production tools needed to *read*
 * those documents too (`tools/tracestat` consumes Chrome traces,
 * `bench_sim_core` appends to its own trajectory file). Objects parse into
 * `std::map`, so iteration order is deterministic by construction — exactly
 * what the determinism discipline requires of anything that later feeds an
 * ordered emitter. Throws std::runtime_error on any syntax violation, so
 * "parses without throwing" doubles as a well-formedness check.
 */

#pragma once

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <variant>
#include <vector>

namespace shiftpar::util {

struct JsonValue;
using JsonArray = std::vector<JsonValue>;
using JsonObject = std::map<std::string, JsonValue>;

/** A parsed JSON term. */
struct JsonValue
{
    std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
                 JsonObject>
        v = nullptr;

    bool is_null() const { return std::holds_alternative<std::nullptr_t>(v); }
    bool is_object() const { return std::holds_alternative<JsonObject>(v); }

    const JsonObject& obj() const { return std::get<JsonObject>(v); }
    const JsonArray& arr() const { return std::get<JsonArray>(v); }
    const std::string& str() const { return std::get<std::string>(v); }
    double num() const { return std::get<double>(v); }
    bool boolean() const { return std::get<bool>(v); }

    /**
     * @return the number as an `Int`; throws std::runtime_error unless it
     *         is integral and within `Int`'s range (a bare cast of such a
     *         double is undefined behaviour).
     */
    template <typename Int = std::int64_t>
    Int
    integer() const
    {
        static_assert(std::is_integral_v<Int> && std::is_signed_v<Int>);
        // -min() is 2^(bits-1): exact as a double, unlike max().
        const double lo = static_cast<double>(std::numeric_limits<Int>::min());
        const double d = num();
        if (!(d >= lo && d < -lo) || std::trunc(d) != d)
            throw std::runtime_error("JSON number is not an integer in range");
        return static_cast<Int>(d);
    }

    bool has(const std::string& k) const
    {
        return is_object() && obj().count(k) > 0;
    }

    const JsonValue& at(const std::string& k) const
    {
        auto it = obj().find(k);
        if (it == obj().end())
            throw std::runtime_error("missing key: " + k);
        return it->second;
    }
};

/** Parse `text`; throws std::runtime_error on malformed JSON. */
JsonValue parse_json(const std::string& text);

} // namespace shiftpar::util
