/**
 * @file
 * Simulation-abort reporting: the SimAbort exception and the machine
 * snapshot it carries.
 *
 * SimAbort completes the error taxonomy documented in common/log.hh:
 * the *simulated machine* wedged (deadlock, cycle-limit runaway)
 * while the simulator itself is healthy.  It is
 * neither a user error (FatalError) nor a simulator bug (PanicError),
 * so tools can keep going -- a sweep records the failed point and
 * finishes its healthy cells.
 *
 * The snapshot is forensic: plain pre-rendered text per component
 * (each component exposes dumpState(std::ostream&)) plus the ring of
 * recently retired PCs, so the report needs no live simulator to
 * print.  Simulator::run() attaches the snapshot to any SimAbort that
 * escapes a component without one.
 */

#ifndef PIPESIM_COMMON_ABORT_HH
#define PIPESIM_COMMON_ABORT_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace pipesim
{

/** Post-mortem state of one simulated machine. */
struct MachineSnapshot
{
    Cycle cycle = 0;             //!< cycle at which the abort fired
    Cycle lastProgressCycle = 0; //!< last cycle an instruction retired
    std::uint64_t instructionsRetired = 0;

    /** Recently retired PCs, oldest first (fed from the probe bus). */
    std::vector<Addr> lastRetiredPcs;

    std::string pipelineState; //!< Pipeline::dumpState output
    std::string fetchState;    //!< FetchUnit::dumpState output
    std::string memoryState;   //!< MemorySystem::dumpState output

    /** Render the human-readable report. */
    void print(std::ostream &os) const;
    std::string toString() const;
};

/**
 * Exception raised by simAbort(): the simulated machine cannot make
 * progress (deadlock, cycle-limit runaway).
 */
class SimAbort : public std::runtime_error
{
  public:
    explicit SimAbort(const std::string &msg) : std::runtime_error(msg) {}

    SimAbort(const std::string &msg, MachineSnapshot snapshot)
        : std::runtime_error(msg),
          _snapshot(std::make_shared<const MachineSnapshot>(
              std::move(snapshot)))
    {
    }

    /** @return true once a machine snapshot has been attached. */
    bool hasSnapshot() const { return _snapshot != nullptr; }

    /** The attached snapshot (hasSnapshot() must hold). */
    const MachineSnapshot &snapshot() const { return *_snapshot; }

    /** Write the message plus the snapshot (when present) to @p os. */
    void report(std::ostream &os) const;

  private:
    std::shared_ptr<const MachineSnapshot> _snapshot;
};

/**
 * Report that the simulated machine wedged.  Never returns.  The
 * thrown SimAbort has no snapshot; Simulator::run() attaches one.
 *
 * @param args Message fragments, streamed together.
 */
template <typename... Args>
[[noreturn]] void
simAbort(Args &&...args)
{
    throw SimAbort("abort: " +
                   detail::buildMessage(std::forward<Args>(args)...));
}

} // namespace pipesim

#endif // PIPESIM_COMMON_ABORT_HH
