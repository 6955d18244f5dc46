/**
 * @file
 * Minimal gem5-style status/error reporting: panic() for simulator
 * bugs (aborts), fatal() for user/configuration errors (exit 1),
 * warn()/inform() for non-fatal conditions.
 */

#ifndef FLYWHEEL_COMMON_LOG_HH
#define FLYWHEEL_COMMON_LOG_HH

#include <cstdio>
#include <cstdlib>
#include <string>

namespace flywheel {

/** Verbosity levels for inform(); warnings always print. */
enum class LogLevel { Quiet, Normal, Verbose };

/** Global log verbosity (default Normal). */
LogLevel logLevel();
void setLogLevel(LogLevel level);

namespace detail {
[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void warnImpl(const std::string &msg);
void informImpl(const std::string &msg);
std::string formatMsg(const char *fmt, ...);
/** FW_ASSERT's failure path: one out-of-line call, no temporaries. */
[[noreturn, gnu::cold]] void assertFail(const char *file, int line,
                                        const char *cond,
                                        const char *fmt, ...);
} // namespace detail

/**
 * Report an internal simulator bug and abort.  Use when a condition
 * can only arise from a defect in the simulator itself.
 */
#define FW_PANIC(...) \
    ::flywheel::detail::panicImpl(__FILE__, __LINE__, \
        ::flywheel::detail::formatMsg(__VA_ARGS__))

/**
 * Report an unrecoverable user/configuration error and exit(1).
 */
#define FW_FATAL(...) \
    ::flywheel::detail::fatalImpl(__FILE__, __LINE__, \
        ::flywheel::detail::formatMsg(__VA_ARGS__))

/** Report a suspicious but survivable condition. */
#define FW_WARN(...) \
    ::flywheel::detail::warnImpl(::flywheel::detail::formatMsg(__VA_ARGS__))

/** Report normal operating status (suppressed when Quiet). */
#define FW_INFORM(...) \
    ::flywheel::detail::informImpl(::flywheel::detail::formatMsg(__VA_ARGS__))

/**
 * Assert a simulator invariant; on failure behaves like FW_PANIC.  The
 * condition text travels apart from the message's format string, so
 * it never lands on one of the message's own conversions.
 */
#define FW_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            ::flywheel::detail::assertFail(__FILE__, __LINE__, #cond, \
                                           __VA_ARGS__); \
        } \
    } while (0)

} // namespace flywheel

#endif // FLYWHEEL_COMMON_LOG_HH
