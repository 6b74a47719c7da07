#include "replay/capture.hh"

#include "common/log.hh"
#include "cpu/executor.hh"
#include "obs/profiler.hh"
#include "sim/simulator.hh"

namespace pipesim::replay
{

namespace
{

/**
 * Execute @p program over a fresh backing store, handing each record
 * to @p emit, until its stream ends or passes @p limit + 1 records.
 * @return true if it halted.
 */
template <class Emit>
bool
execute(const Program &program, std::uint64_t limit, Emit &&emit)
{
    DataMemory mem;
    mem.loadProgram(program);
    Executor exec(program, mem);
    exec.commit(~std::size_t(0));
    TraceRecord r;
    while (exec.position() <= limit && exec.step(r))
        emit(r);
    return exec.halted();
}

} // namespace

Trace
captureTrace(const SimConfig &config, const Program &program,
             const std::string &provenance)
{
    obs::ScopedPhase phase("capture", obs::Scope::Coarse);
    // Count first, so the records fill an exact-size vector: capture
    // never holds a growing container's slack or a second copy.
    std::size_t count = 0;
    if (!execute(program, config.maxCycles,
                 [&count](const TraceRecord &) { ++count; })) {
        Simulator(config, program).run();
        panic("the cycle engine finished a program the executor does not");
    }
    Trace trace;
    trace.meta.entry = program.entry();
    trace.meta.programSha256 = programSha256(program);
    trace.meta.provenance = provenance;
    trace.records.reserve(count);
    execute(program, config.maxCycles,
            [&trace](const TraceRecord &r) { trace.records.push_back(r); });
    encodeTrace(trace); // refresh trace.sha256
    return trace;
}

} // namespace pipesim::replay
