#include "util/logging.h"

#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>

namespace shiftpar {

namespace {

/**
 * Initial level from the `SHIFTPAR_LOG_LEVEL` environment variable
 * (debug/info/warn/error/silent, case-insensitive, or the numeric level);
 * defaults to warn when unset or unparsable.
 */
LogLevel
level_from_env()
{
    const char* env = std::getenv("SHIFTPAR_LOG_LEVEL");
    if (env == nullptr || *env == '\0')
        return LogLevel::kWarn;
    std::string v;
    for (const char* p = env; *p != '\0'; ++p)
        v.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(*p))));
    if (v == "debug" || v == "0")
        return LogLevel::kDebug;
    if (v == "info" || v == "1")
        return LogLevel::kInfo;
    if (v == "warn" || v == "warning" || v == "2")
        return LogLevel::kWarn;
    if (v == "error" || v == "3")
        return LogLevel::kError;
    if (v == "silent" || v == "none" || v == "off" || v == "4")
        return LogLevel::kSilent;
    std::fprintf(stderr,
                 "[WARN] unrecognized SHIFTPAR_LOG_LEVEL '%s' "
                 "(want debug/info/warn/error/silent); using warn\n",
                 env);
    return LogLevel::kWarn;
}

LogLevel
global_level()
{
    static const LogLevel level = level_from_env();
    return level;
}

/** Parse the env var at start-up so a bad value warns even if nothing logs. */
[[maybe_unused]] const LogLevel g_startup_level = global_level();

/** Seconds of wall time since the process's first log line. */
double
monotonic_seconds()
{
    using clock = std::chrono::steady_clock;
    static const clock::time_point start = clock::now();
    return std::chrono::duration<double>(clock::now() - start).count();
}

const char*
level_name(LogLevel level)
{
    switch (level) {
      case LogLevel::kDebug: return "DEBUG";
      case LogLevel::kInfo:  return "INFO";
      case LogLevel::kWarn:  return "WARN";
      case LogLevel::kError: return "ERROR";
      case LogLevel::kSilent: return "SILENT";
    }
    return "?";
}

void
emit(const char* level, const std::string& msg)
{
    std::fprintf(stderr, "[%10.6f] [%s] %s\n", monotonic_seconds(), level,
                 msg.c_str());
}

} // namespace

void
log_message(LogLevel level, const std::string& msg)
{
    if (static_cast<int>(level) < static_cast<int>(global_level()))
        return;
    emit(level_name(level), msg);
}

void
fatal(const std::string& msg)
{
    emit("FATAL", msg);
    std::exit(1);
}

void
panic(const std::string& msg)
{
    emit("PANIC", msg);
    std::abort();
}

} // namespace shiftpar
