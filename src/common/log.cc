#include "common/log.hh"

#include <atomic>
#include <cctype>
#include <cstring>
#include <mutex>

namespace necpt
{

namespace
{

constexpr int level_unset = -1;

std::atomic<int> g_level{level_unset};

std::mutex &
lineMutex()
{
    static std::mutex m;
    return m;
}

int
levelFromEnv()
{
    const char *env = std::getenv("NECPT_LOG_LEVEL");
    if (!env || !*env)
        return static_cast<int>(LogLevel::Info);
    if (std::isdigit(static_cast<unsigned char>(env[0]))) {
        const int n = env[0] - '0';
        if (n >= 0 && n <= 2 && env[1] == '\0')
            return n;
    }
    if (std::strcmp(env, "quiet") == 0)
        return static_cast<int>(LogLevel::Quiet);
    if (std::strcmp(env, "warn") == 0)
        return static_cast<int>(LogLevel::Warn);
    if (std::strcmp(env, "info") == 0)
        return static_cast<int>(LogLevel::Info);
    return static_cast<int>(LogLevel::Info);
}

} // namespace

LogLevel
logLevel()
{
    int lv = g_level.load(std::memory_order_relaxed);
    if (lv == level_unset) {
        lv = levelFromEnv();
        // A racing first call computes the same value; last store wins
        // harmlessly. setLogLevel() after this sticks either way.
        g_level.store(lv, std::memory_order_relaxed);
    }
    return static_cast<LogLevel>(lv);
}

void
setLogLevel(LogLevel level)
{
    g_level.store(static_cast<int>(level), std::memory_order_relaxed);
}

namespace log_detail
{

void
dispatch(const char *tag, const std::string &line)
{
    std::lock_guard<std::mutex> lock(lineMutex());
    std::fprintf(stderr, "%s: %s\n", tag, line.c_str());
}

} // namespace log_detail

} // namespace necpt
