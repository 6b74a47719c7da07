/**
 * @file
 * Top-level simulator: wires a program, a fetch strategy, the
 * pipeline and the memory system together and runs to completion.
 * The one machine of both engines: its pipeline reads every value
 * from a record stream, which the cycle engine fills with the
 * functional executor (cpu/executor.hh) and the trace-replay engine
 * with a captured trace (replay/replay_engine.hh), so ticks,
 * watchdogs, forensic snapshots, checkpoints and the loop memo exist
 * once.
 *
 * Tick order within a cycle: fetch unit (buffer management, request
 * generation) -> memory system (output-bus acceptance, input-bus
 * delivery) -> pipeline (issue, branch resolution, fetch
 * consumption).
 *
 * Tick gating: runUntil() ticks the fetch unit and the memory system
 * only when their tick can differ from a repeat of their last one.
 * The fetch unit's idle tick repeats until something calls into the
 * unit; the memory system's until a client reposts its request slot
 * or one of its own ready times comes up.  A skipped tick only adds
 * the counts an idle tick adds.  When no component's tick changed
 * anything (nothing issued, moved on a bus or was requested; only
 * stall counters grew), runUntil() asks each component for its next
 * event and jumps the clock straight to it, adding the repeated
 * counts in bulk.  Results are identical to ticking every cycle
 * (docs/internals.md, "Tick gating").
 *
 * Loop memo: runUntil() also jumps over whole loop iterations that
 * repeat the previous ones, by restoring a checkpoint extrapolated
 * from the last two (sim/loop_memo.hh; docs/internals.md, "Loop
 * memo").
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
#include "core/fetch_unit.hh"
#include "cpu/pipeline.hh"
#include "mem/data_memory.hh"
#include "mem/memory_system.hh"
#include "obs/cpi_stack.hh"
#include "obs/probe.hh"
#include "sim/config.hh"
#include "sim/loop_memo.hh"

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
    /**
     * A cycle-engine machine: the executor runs @p program over the
     * machine's own backing store.
     */
    Simulator(const SimConfig &config, const Program &program);

    /**
     * A machine over a caller-owned backing store: driven by @p trace
     * from record @p firstRecord on, or without one by the executor
     * over @p dataMem, which the caller has then loaded.  A
     * trace-driven machine never reads or writes the store, so the
     * replay engine passes an empty one.
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
     * worker threads.  It gates ticks and skips idle cycles unless a
     * probe listener is attached; on those terms, a machine with no
     * data cache also skips repeating loop iterations.
     * @throws SimAbort carrying a machine snapshot.
     */
    void runUntil(std::size_t record);

    /** Advance a single cycle, ticking every component. */
    void step();

    /**
     * Cycles this object ticked (a host-side work counter, not a
     * SimResult counter): now() minus the cycles the idle skip and
     * the loop memo jumped over, for a machine that was not restored
     * from a checkpoint.
     */
    std::uint64_t ticksExecuted() const { return _ticksExecuted; }

    /** Of those cycles, the ones whose fetch tick ran (not gated). */
    std::uint64_t fetchTicksExecuted() const { return _fetchTicks; }

    /** Of those cycles, the ones whose memory tick ran (not gated). */
    std::uint64_t memTicksExecuted() const { return _memTicks; }

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
     * Neither the DataMemory's contents nor the executor's state are
     * included: a checkpoint captures the dirty pages separately,
     * since a borrowed backing store outlives any one machine, and the
     * executor's state follows from the cursor.
     */
    void saveState(StateWriter &w) const;

    /**
     * Restore state written by saveState() into this machine, which
     * must have been built with the same config, program, trace and
     * first record that produced the snapshot.  An executor moves to
     * the restored cursor, forward by executing, backward from the
     * entry over the reloaded image; the backing store then holds the
     * stores of exactly the records before the cursor.
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

    /** step() with the fetch and memory ticks gated. */
    void stepGated();

    /** The end of every cycle: progress bookkeeping, clock. */
    void endCycle();

    /** Watchdog checks shared by both loops. */
    void checkWatchdogs();

    /**
     * After an idle step, jump the clock to the components' earliest
     * next event, never past the cycle at which a watchdog fires.
     */
    void skipIdleCycles();

    /**
     * After a step that issued a record: at a loop boundary, offer the
     * memo a keyed checkpoint and restore the state it extrapolates
     * (landing at or before record @p record), if any.
     */
    void memoize(std::size_t record);

    SimConfig _config;
    const Program &_program;
    std::unique_ptr<DataMemory> _ownedDataMem;
    DataMemory &_dataMem;
    obs::ProbeBus _probes;
    std::unique_ptr<MemorySystem> _mem;
    std::unique_ptr<FetchUnit> _fetch;
    std::unique_ptr<RecordStream> _records;
    std::unique_ptr<Pipeline> _pipeline;
    std::unique_ptr<obs::CpiStack> _cpiStack;
    std::unique_ptr<LoopMemo> _memo;
    StatGroup _stats;

    Cycle _now = 0;
    Cycle _lastProgressCycle = 0;
    std::uint64_t _lastRetired = 0;
    std::uint64_t _ticksExecuted = 0;
    std::uint64_t _fetchTicks = 0;
    std::uint64_t _memTicks = 0;
};

/** Convenience: build, run and tear down a simulator in one call. */
SimResult runSimulation(const SimConfig &config, const Program &program);

} // namespace pipesim

#endif // PIPESIM_SIM_SIMULATOR_HH
