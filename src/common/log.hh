/**
 * @file
 * gem5-flavored status/error reporting: panic, fatal, warn, inform.
 *
 * panic() flags a simulator bug (aborts); fatal() flags a user/config error
 * (clean exit(1)); warn()/inform() print and continue.
 *
 * warn()/inform() print whole lines to stderr under a mutex and are
 * filtered by a verbosity level (`NECPT_LOG_LEVEL` / --quiet), so
 * multi-job sweeps neither interleave half-lines on stderr nor bury
 * the progress meter. panic()/fatal() bypass both: a dying process
 * must always say why, immediately and unfiltered.
 */

#ifndef NECPT_COMMON_LOG_HH
#define NECPT_COMMON_LOG_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>

namespace necpt
{

/** Verbosity: each level includes everything below it. */
enum class LogLevel : int
{
    Quiet = 0, //!< warn()/inform() both dropped
    Warn = 1,  //!< warn() only
    Info = 2,  //!< everything (the default)
};

/**
 * Current level. First call reads NECPT_LOG_LEVEL ("quiet"/"warn"/
 * "info" or 0/1/2); unset or unparsable means Info.
 */
LogLevel logLevel();

/** Override the level (CLI --quiet). Wins over the environment. */
void setLogLevel(LogLevel level);

namespace log_detail
{

template <typename... Args>
void
emit(const char *tag, const char *fmt, Args &&...args)
{
    std::fprintf(stderr, "%s: ", tag);
    if constexpr (sizeof...(Args) == 0)
        std::fputs(fmt, stderr);
    else
        std::fprintf(stderr, fmt, std::forward<Args>(args)...);
    std::fputc('\n', stderr);
}

template <typename... Args>
std::string
format(const char *fmt, Args &&...args)
{
    if constexpr (sizeof...(Args) == 0) {
        return std::string(fmt);
    } else {
        const int n = std::snprintf(nullptr, 0, fmt, args...);
        if (n <= 0)
            return std::string(fmt);
        std::string s(static_cast<std::size_t>(n), '\0');
        std::snprintf(s.data(), s.size() + 1, fmt, args...);
        return s;
    }
}

/** Print "tag: line" on stderr, one whole line at a time. */
void dispatch(const char *tag, const std::string &line);

} // namespace log_detail

/** Unrecoverable simulator bug: print and abort (core-dumpable). */
template <typename... Args>
[[noreturn]] void
panic(const char *fmt, Args &&...args)
{
    log_detail::emit("panic", fmt, std::forward<Args>(args)...);
    std::abort();
}

/** Unrecoverable user/configuration error: print and exit(1). */
template <typename... Args>
[[noreturn]] void
fatal(const char *fmt, Args &&...args)
{
    log_detail::emit("fatal", fmt, std::forward<Args>(args)...);
    std::exit(1);
}

/** Possibly-incorrect behavior the user should know about. */
template <typename... Args>
void
warn(const char *fmt, Args &&...args)
{
    if (logLevel() < LogLevel::Warn)
        return;
    log_detail::dispatch("warn",
                         log_detail::format(fmt,
                                            std::forward<Args>(args)...));
}

/** Normal status message. */
template <typename... Args>
void
inform(const char *fmt, Args &&...args)
{
    if (logLevel() < LogLevel::Info)
        return;
    log_detail::dispatch("info",
                         log_detail::format(fmt,
                                            std::forward<Args>(args)...));
}

/** panic() unless @p cond holds. */
#define NECPT_ASSERT(cond, ...)                                             \
    do {                                                                    \
        if (!(cond))                                                        \
            ::necpt::panic("assertion failed: %s (%s:%d)", #cond,           \
                           __FILE__, __LINE__);                             \
    } while (0)

} // namespace necpt

#endif // NECPT_COMMON_LOG_HH
