/**
 * @file
 * Top-level simulator: wires a program, a fetch strategy, the
 * pipeline and the memory system together and runs to completion.
 * The one machine of both engines: the cycle engine builds it with
 * an executing pipeline, the trace-replay engine with a trace value
 * source (replay/replay_engine.hh), so ticks, watchdogs, forensic
 * snapshots and checkpoints exist once.
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
#include "common/state_io.hh"
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
    /** A machine with its own backing store, loaded with @p program. */
    Simulator(const SimConfig &config, const Program &program);

    /**
     * A machine over a caller-owned backing store, which the caller
     * has loaded (sampled replay windows share one instead of zeroing
     * a fresh megabyte each), optionally driven by a trace value
     * source from record @p firstRecord on (see Pipeline).
     */
    Simulator(const SimConfig &config, const Program &program,
              DataMemory &dataMem, const replay::Trace *trace = nullptr,
              std::size_t firstRecord = 0);

    /** Run until HALT issues and all queues drain. */
    SimResult run();

    /**
     * Step, checking the watchdogs every cycle, until done() or until
     * the pipeline's cursor reaches @p record.  The plain loop, with
     * zero host-profiling cost: the replay engine attributes its own
     * phases, and pooled windows must not touch the profiler from
     * worker threads.
     * @throws SimAbort carrying a machine snapshot.
     */
    void runUntil(std::size_t record);

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

    /**
     * Serialize the machine's full warm state (clock, watchdog
     * bookkeeping, pipeline, fetch unit, memory system, CPI stack).
     * The DataMemory's contents are NOT included — a checkpoint
     * captures its dirty pages separately, since a borrowed backing
     * store outlives any one machine.
     * @throws FatalError when fault injection is on (the injector's
     *         random stream is not checkpointed).
     */
    void saveState(StateWriter &w) const;

    /**
     * Restore state written by saveState() into this machine, which
     * must have been built with the same config, program, trace and
     * first record that produced the snapshot.
     */
    void restoreState(StateReader &r);

  private:
    void build(const replay::Trace *trace, std::size_t firstRecord);

    /**
     * runUntil()'s loop with per-cycle phase attribution (fetch/mem/
     * pipeline/other) under the host profiler.  Selected by run()
     * with a single obs::Profiler::enabled() check, so the detached
     * hot path carries no probe cost at all.
     */
    void runLoopProfiled();

    /** Watchdog checks shared by both loops. */
    void checkWatchdogs();

    SimConfig _config;
    const Program &_program;
    std::unique_ptr<DataMemory> _ownedDataMem;
    DataMemory &_dataMem;
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
