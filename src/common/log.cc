#include "common/log.hh"

#include <atomic>
#include <cstdarg>
#include <vector>

namespace flywheel {

namespace {
// Atomic so concurrent runSim() workers may log while another thread
// adjusts verbosity; message emission itself is a single fprintf,
// which POSIX keeps atomic per call.
std::atomic<LogLevel> g_level{LogLevel::Normal};
} // namespace

LogLevel
logLevel()
{
    return g_level.load(std::memory_order_relaxed);
}

void
setLogLevel(LogLevel level)
{
    g_level.store(level, std::memory_order_relaxed);
}

namespace {

std::string
vformatMsg(const char *fmt, va_list ap)
{
    va_list ap2;
    va_copy(ap2, ap);
    int needed = std::vsnprintf(nullptr, 0, fmt, ap);
    if (needed < 0) {
        va_end(ap2);
        return std::string(fmt);
    }
    std::vector<char> buf(static_cast<size_t>(needed) + 1);
    std::vsnprintf(buf.data(), buf.size(), fmt, ap2);
    va_end(ap2);
    return std::string(buf.data(), static_cast<size_t>(needed));
}

} // namespace

namespace detail {

std::string
formatMsg(const char *fmt, ...)
{
    va_list ap;
    va_start(ap, fmt);
    std::string msg = vformatMsg(fmt, ap);
    va_end(ap);
    return msg;
}

void
assertFail(const char *file, int line, const char *cond, const char *fmt,
           ...)
{
    va_list ap;
    va_start(ap, fmt);
    const std::string msg = vformatMsg(fmt, ap);
    va_end(ap);
    panicImpl(file, line,
              std::string("assertion failed: ") + cond + " — " + msg);
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s (%s:%d)\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s (%s:%d)\n", msg.c_str(), file, line);
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::fprintf(stderr, "warn: %s\n", msg.c_str());
}

void
informImpl(const std::string &msg)
{
    if (g_level.load(std::memory_order_relaxed) != LogLevel::Quiet)
        std::fprintf(stderr, "info: %s\n", msg.c_str());
}

} // namespace detail
} // namespace flywheel
