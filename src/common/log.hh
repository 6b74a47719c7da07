/**
 * @file
 * Error and status reporting helpers.
 *
 * Follows the gem5 convention:
 *  - panic():  an internal simulator bug; never the user's fault.
 *  - fatal():  the simulation cannot continue due to a user error
 *              (bad configuration, malformed assembly, ...).
 *  - warn():   something is suspicious but simulation continues.
 *  - inform(): purely informational status output.
 *
 * A third failure class lives in common/abort.hh:
 *  - simAbort(): the *simulated machine* wedged (deadlock, cycle
 *              runaway) -- neither a user error nor a simulator
 *              bug.  SimAbort carries a
 *              MachineSnapshot for post-mortem reports; see
 *              docs/robustness.md for the full taxonomy.
 *
 * Unlike gem5 we raise typed exceptions instead of terminating the
 * process, so that library users (and the test suite) can catch and
 * inspect failures.
 */

#ifndef PIPESIM_COMMON_LOG_HH
#define PIPESIM_COMMON_LOG_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace pipesim
{

/** Exception raised by panic(): an internal simulator bug. */
class PanicError : public std::logic_error
{
  public:
    explicit PanicError(const std::string &msg) : std::logic_error(msg) {}
};

/** Exception raised by fatal(): a user/configuration error. */
class FatalError : public std::runtime_error
{
  public:
    explicit FatalError(const std::string &msg) : std::runtime_error(msg) {}
};

namespace detail
{

/** Build a single message string from a variadic argument pack. */
template <typename... Args>
std::string
buildMessage(Args &&...args)
{
    std::ostringstream os;
    (os << ... << std::forward<Args>(args));
    return os.str();
}

} // namespace detail

/**
 * Report an internal simulator bug.  Never returns.
 *
 * @param args Message fragments, streamed together.
 */
template <typename... Args>
[[noreturn]] void
panic(Args &&...args)
{
    throw PanicError("panic: " +
                     detail::buildMessage(std::forward<Args>(args)...));
}

/**
 * Report an unrecoverable user error.  Never returns.
 *
 * @param args Message fragments, streamed together.
 */
template <typename... Args>
[[noreturn]] void
fatal(Args &&...args)
{
    throw FatalError("fatal: " +
                     detail::buildMessage(std::forward<Args>(args)...));
}

/** panic() unless @p cond holds. */
#define PIPESIM_ASSERT(cond, ...)                                          \
    do {                                                                    \
        if (!(cond))                                                        \
            ::pipesim::panic("assertion '", #cond, "' failed: ",            \
                             ##__VA_ARGS__);                                \
    } while (0)

/** Emit a warning to stderr; simulation continues. */
void warn(const std::string &msg);

/** Emit an informational message to stdout. */
void inform(const std::string &msg);

/** Suppress or re-enable warn()/inform() output (used by tests). */
void setLogQuiet(bool quiet);

/** @return true if warn()/inform() output is currently suppressed. */
bool logQuiet();

} // namespace pipesim

#endif // PIPESIM_COMMON_LOG_HH
