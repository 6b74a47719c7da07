#include "replay/replay_machine.hh"

#include "common/abort.hh"
#include "core/fetch_factory.hh"
#include "sim/guard.hh"

namespace pipesim::replay
{

ReplayMachine::ReplayMachine(const SimConfig &config,
                             const Program &program, const Trace &trace,
                             std::size_t firstRecord, DataMemory &dataMem)
    : mem(config.mem, dataMem),
      fetch(makeFetchUnit(config.fetch, program, mem)),
      pipe(config.cpu, *fetch, mem, trace, firstRecord)
{
    // Match Simulator's registration order so reports line up.
    pipe.regStats(stats, "cpu");
    fetch->regStats(stats, "fetch");
    mem.regStats(stats, "mem");
}

void
ReplayMachine::step()
{
    fetch->tick(now);
    mem.tick(now);
    pipe.tick(now);
    if (pipe.instructionsRetired() != lastRetired) {
        lastRetired = pipe.instructionsRetired();
        lastProgressCycle = now;
    }
    ++now;
}

bool
ReplayMachine::done() const
{
    return pipe.halted() && pipe.drained() && mem.quiescent();
}

void
ReplayMachine::watchdogs(const SimConfig &config) const
{
    if (now > config.maxCycles)
        simAbort("trace replay exceeded ", config.maxCycles, " cycles");
    if (!pipe.halted() && now - lastProgressCycle > config.progressWindow)
        simAbort("trace replay: no instruction retired for ",
                 config.progressWindow,
                 " cycles: machine deadlocked at cycle ", now);
    // Host-side watchdogs, mirroring Simulator::checkWatchdogs: the
    // sweep's per-point wall-clock deadline and the guard's
    // SIGINT/SIGTERM flag (no snapshot machinery here — replay
    // failures report without forensics).
    if (config.cancelFlag &&
        config.cancelFlag->load(std::memory_order_relaxed))
        throw TimeoutAbort("abort: trace replay point exceeded its "
                           "wall-clock deadline (timeout): cancelled "
                           "at cycle " +
                           std::to_string(now));
    checkInterrupt();
}

void
ReplayMachine::saveState(StateWriter &w) const
{
    w.u64(now);
    w.u64(lastProgressCycle);
    w.u64(lastRetired);
    pipe.saveState(w);
    fetch->saveState(w);
    mem.saveState(w);
}

void
ReplayMachine::restoreState(StateReader &r)
{
    now = r.u64();
    lastProgressCycle = r.u64();
    lastRetired = r.u64();
    pipe.restoreState(r);
    fetch->restoreState(r);
    mem.restoreState(r);
}

} // namespace pipesim::replay
