/**
 * @file
 * Minimal leveled logging and error-termination helpers.
 *
 * Follows the gem5 convention: `fatal()` is for user errors (bad
 * configuration — exits cleanly with code 1), `panic()` is for internal
 * invariant violations (aborts). `SP_ASSERT` is an always-on assertion used
 * at module boundaries where an invariant violation would silently corrupt
 * simulation results.
 */

#pragma once

#include <sstream>
#include <string>

namespace shiftpar {

/** Severity levels for the global logger. */
enum class LogLevel { kDebug = 0, kInfo = 1, kWarn = 2, kError = 3, kSilent = 4 };

/** Emit one log line at `level` (filtered by `SHIFTPAR_LOG_LEVEL`). */
void log_message(LogLevel level, const std::string& msg);

/** Terminate due to a user/configuration error (exit code 1). */
[[noreturn]] void fatal(const std::string& msg);

/** Terminate due to an internal invariant violation (abort). */
[[noreturn]] void panic(const std::string& msg);

namespace detail {

/** Builds a message from stream-style arguments. */
template <typename... Args>
std::string
concat(Args&&... args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}

} // namespace detail

} // namespace shiftpar

/** Log helpers accepting stream-style argument lists. */
#define SP_LOG_DEBUG(...) \
    ::shiftpar::log_message(::shiftpar::LogLevel::kDebug, \
                            ::shiftpar::detail::concat(__VA_ARGS__))
#define SP_LOG_INFO(...) \
    ::shiftpar::log_message(::shiftpar::LogLevel::kInfo, \
                            ::shiftpar::detail::concat(__VA_ARGS__))
#define SP_LOG_WARN(...) \
    ::shiftpar::log_message(::shiftpar::LogLevel::kWarn, \
                            ::shiftpar::detail::concat(__VA_ARGS__))
#define SP_LOG_ERROR(...) \
    ::shiftpar::log_message(::shiftpar::LogLevel::kError, \
                            ::shiftpar::detail::concat(__VA_ARGS__))

/** Always-on assertion; aborts with file/line context on failure. */
#define SP_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            ::shiftpar::panic(::shiftpar::detail::concat( \
                "assertion failed: ", #cond, " at ", __FILE__, ":", \
                __LINE__, " ", ##__VA_ARGS__)); \
        } \
    } while (0)

/**
 * Debug-build assertion for hot-path invariants (per-pop event ordering,
 * per-post causality). Compiled out under NDEBUG so Release replay loops
 * pay nothing; the sanitizer CI job builds Debug to exercise these.
 */
#ifdef NDEBUG
#define SP_DEBUG_ASSERT(...) \
    do { \
    } while (0)
#else
#define SP_DEBUG_ASSERT(...) SP_ASSERT(__VA_ARGS__)
#endif
