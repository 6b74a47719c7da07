/**
 * @file
 * One replayed machine instance (an exact run or one sampling
 * window): the real fetch unit and memory system driving the
 * surrogate backend (ReplayPipeline).
 *
 * Extracted from replay_engine.cc so the checkpoint store
 * (replay/checkpoint.hh) can snapshot and restore a warm machine:
 * saveState() serializes every timing-relevant component in a fixed
 * order and restoreState() rebuilds it on a fresh instance.  Memory
 * requests are plain data, so in-flight ones restore as they are.
 */

#ifndef PIPESIM_REPLAY_REPLAY_MACHINE_HH
#define PIPESIM_REPLAY_REPLAY_MACHINE_HH

#include <cstdint>
#include <memory>

#include "common/state_io.hh"
#include "common/stats.hh"
#include "core/fetch_unit.hh"
#include "mem/memory_system.hh"
#include "replay/replay_pipeline.hh"
#include "sim/config.hh"

namespace pipesim::replay
{

/**
 * The backing store is shared by the caller: replay timing is
 * value-independent, so sampling windows may reuse one DataMemory
 * instead of zeroing a fresh megabyte each (stale values from an
 * earlier window are harmless — only addresses reach the timing
 * model).
 */
struct ReplayMachine
{
    MemorySystem mem;
    std::unique_ptr<FetchUnit> fetch;
    ReplayPipeline pipe;
    StatGroup stats;
    Cycle now = 0;
    Cycle lastProgressCycle = 0;
    std::uint64_t lastRetired = 0;

    ReplayMachine(const SimConfig &config, const Program &program,
                  const Trace &trace, std::size_t firstRecord,
                  DataMemory &dataMem);

    /** Advance one cycle (fetch, memory, then the pipeline). */
    void step();

    bool done() const;

    /** @throws SimAbort on the cycle-limit or progress watchdogs. */
    void watchdogs(const SimConfig &config) const;

    /**
     * Serialize the machine's full warm state (clock, pipeline, fetch
     * unit, memory system).  The shared DataMemory's contents are NOT
     * included — the checkpoint store captures its dirty pages
     * separately, since the backing store outlives any one machine.
     */
    void saveState(StateWriter &w) const;

    /**
     * Restore state written by saveState() into this machine.  The
     * machine must have been constructed with the same config,
     * program, trace and firstRecord that produced the snapshot
     * (the checkpoint store's cache key enforces this).
     */
    void restoreState(StateReader &r);
};

} // namespace pipesim::replay

#endif // PIPESIM_REPLAY_REPLAY_MACHINE_HH
