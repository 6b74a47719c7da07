/**
 * @file
 * The top-level error guard shared by every example and bench main.
 *
 * Maps the error taxonomy (common/log.hh, common/abort.hh,
 * docs/robustness.md) onto process exits:
 *
 *  - FatalError (user error): the message alone, exit 1;
 *  - SimAbort (simulated machine wedged): the message plus the
 *    machine snapshot when one is attached, exit 2;
 *  - PanicError (simulator bug): the message plus a please-report
 *    banner, exit 2;
 *  - InterruptedError (SIGINT/SIGTERM): a clean-shutdown notice, exit
 *    128+sig (the shell convention);
 *  - any other exception: reported as unhandled, exit 2.
 *
 * Signal handling: runGuardedMain() installs SIGINT/SIGTERM handlers
 * that do nothing but record the signal in an atomic flag.  The
 * long-running loops (Simulator::checkWatchdogs, the replay engine's
 * per-cycle watchdogs, the sweep engine between points) poll the flag
 * via checkInterrupt() and unwind with
 * InterruptedError, so teardown is always orderly: destructors run
 * and the profiler report flushes.  Nothing is ever written from the
 * handler itself.
 */

#ifndef PIPESIM_SIM_GUARD_HH
#define PIPESIM_SIM_GUARD_HH

#include <atomic>
#include <functional>
#include <stdexcept>
#include <string>

namespace pipesim
{

/**
 * Thrown (never from the signal handler — always from a polling
 * site via checkInterrupt()) once SIGINT/SIGTERM was observed.
 * The sweep engine lets it unwind past the failure policy: an
 * interruption aborts the whole sweep rather than rendering ERR
 * cells.
 */
class InterruptedError : public std::runtime_error
{
  public:
    explicit InterruptedError(int sig);

    /** The signal that caused the interruption. */
    int signalNumber() const { return _signal; }

  private:
    int _signal;
};

namespace detail
{
extern std::atomic<int> pendingSignalFlag;
} // namespace detail

/**
 * The signal recorded by the guard's handler (or requestShutdown()),
 * 0 when none is pending.  A single relaxed load — cheap enough for
 * per-cycle polling in the simulation hot loops.
 */
inline int
pendingSignal()
{
    return detail::pendingSignalFlag.load(std::memory_order_relaxed);
}

/**
 * Record @p sig as if the handler had caught it — for embedders that
 * manage signals themselves, and for tests that exercise the
 * cooperative-shutdown path without raising a real signal.
 */
void requestShutdown(int sig);

/** Clear a pending signal (tests; a resumed embedder). */
void clearPendingSignal();

/** Throw InterruptedError if a shutdown signal is pending. */
inline void
checkInterrupt()
{
    if (const int sig = pendingSignal())
        throw InterruptedError(sig);
}

/**
 * Install the flag-setting SIGINT/SIGTERM handlers (idempotent).
 * Called by runGuardedMain(); exposed for tools with hand-rolled
 * mains.
 */
void installSignalGuard();

/**
 * Run @p body (a main function's work) under the standard guard.
 * @return body's own return value, or the taxonomy's exit code when
 *         an exception escapes it.
 */
int runGuardedMain(const std::function<int()> &body);

} // namespace pipesim

#endif // PIPESIM_SIM_GUARD_HH
