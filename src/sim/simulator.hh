/**
 * @file
 * Top-level simulator: wires a program, a fetch strategy, the
 * pipeline and the memory system together and runs to completion.
 *
 * Tick order within a cycle: fetch unit (buffer management, request
 * generation) -> memory system (output-bus acceptance, input-bus
 * delivery) -> pipeline (issue, branch resolution, fetch
 * consumption).
 */

#ifndef PIPESIM_SIM_SIMULATOR_HH
#define PIPESIM_SIM_SIMULATOR_HH

#include <map>
#include <memory>
#include <string>

#include "assembler/program.hh"
#include "common/abort.hh"
#include "common/stats.hh"
#include "fault/fault.hh"
#include "core/fetch_unit.hh"
#include "cpu/pipeline.hh"
#include "mem/data_memory.hh"
#include "mem/memory_system.hh"
#include "obs/cpi_stack.hh"
#include "obs/probe.hh"
#include "sim/config.hh"

namespace pipesim
{

/** Everything a caller typically wants from one finished run. */
struct SimResult
{
    Cycle totalCycles = 0;          //!< cycle at which HALT issued
    std::uint64_t instructions = 0; //!< dynamic instruction count
    std::map<std::string, std::uint64_t> counters;

    /**
     * Free-form provenance attached to the run and emitted in the
     * --stats-json "meta" object: the replay engine records the
     * trace's SHA-256 and the program hash here ("trace_sha256",
     * "program_sha256", "engine", sampling parameters), so every
     * replayed result is attributable to an exact capture.
     */
    std::map<std::string, std::string> meta;

    /** Cycles per instruction. */
    double
    cpi() const
    {
        return instructions ? double(totalCycles) / double(instructions)
                            : 0.0;
    }

    /** A counter by name, or 0 when absent. */
    std::uint64_t counter(const std::string &name) const;

    /** @return true if a counter named @p name was recorded. */
    bool hasCounter(const std::string &name) const;
};

class Simulator
{
  public:
    Simulator(const SimConfig &config, const Program &program);

    /** Run until HALT issues and all queues drain. */
    SimResult run();

    /** Advance a single cycle (for fine-grained tests). */
    void step();

    /** @return true when the machine has halted and drained. */
    bool done() const;

    Cycle now() const { return _now; }

    Pipeline &pipeline() { return *_pipeline; }
    FetchUnit &fetchUnit() { return *_fetch; }
    MemorySystem &memorySystem() { return *_mem; }
    DataMemory &dataMemory() { return _dataMem; }
    StatGroup &stats() { return _stats; }
    const SimConfig &config() const { return _config; }
    const Program &program() const { return _program; }

    /** The machine's probe bus (attach observability listeners here). */
    obs::ProbeBus &probes() { return _probes; }

    /** The CPI-stack accountant, or nullptr when disabled. */
    const obs::CpiStack *cpiStack() const { return _cpiStack.get(); }

    /** The fault injector, or nullptr when fault injection is off. */
    const fault::FaultInjector *faultInjector() const
    {
        return _faultInjector.get();
    }

    /** Snapshot the result of a finished (or in-progress) run. */
    SimResult result() const;

    /**
     * Capture a forensic machine snapshot (any time; run() uses this
     * to decorate a SimAbort that escapes without one).
     */
    MachineSnapshot snapshot() const;

  private:
    /** The plain run loop: zero host-profiling cost. */
    void runLoop();

    /**
     * The same loop with per-cycle phase attribution (fetch/mem/
     * pipeline/other) under the host profiler.  Selected by run()
     * with a single obs::Profiler::enabled() check, so the detached
     * hot path carries no probe cost at all.
     */
    void runLoopProfiled();

    /** Watchdog checks shared by both loops. */
    void checkWatchdogs();

    SimConfig _config;
    const Program &_program;
    DataMemory _dataMem;
    obs::ProbeBus _probes;
    std::unique_ptr<MemorySystem> _mem;
    std::unique_ptr<FetchUnit> _fetch;
    std::unique_ptr<Pipeline> _pipeline;
    std::unique_ptr<obs::CpiStack> _cpiStack;
    std::unique_ptr<fault::FaultInjector> _faultInjector;
    StatGroup _stats;

    Cycle _now = 0;
    Cycle _lastProgressCycle = 0;
    std::uint64_t _lastRetired = 0;
};

/** Convenience: build, run and tear down a simulator in one call. */
SimResult runSimulation(const SimConfig &config, const Program &program);

} // namespace pipesim

#endif // PIPESIM_SIM_SIMULATOR_HH
