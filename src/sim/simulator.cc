#include "sim/simulator.hh"

#include <algorithm>
#include <limits>
#include <sstream>

#include "common/abort.hh"
#include "core/fetch_factory.hh"
#include "obs/profiler.hh"
#include "sim/guard.hh"

namespace pipesim
{

std::uint64_t
SimResult::counter(const std::string &name) const
{
    auto it = counters.find(name);
    return it == counters.end() ? 0 : it->second;
}

bool
SimResult::hasCounter(const std::string &name) const
{
    return counters.count(name) != 0;
}

Simulator::Simulator(const SimConfig &config, const Program &program)
    : _config(config), _program(program),
      _ownedDataMem(std::make_unique<DataMemory>()),
      _dataMem(*_ownedDataMem)
{
    _dataMem.loadProgram(program);
    build(nullptr, 0);
}

Simulator::Simulator(const SimConfig &config, const Program &program,
                     DataMemory &dataMem, const replay::Trace *trace,
                     std::size_t firstRecord)
    : _config(config), _program(program), _dataMem(dataMem)
{
    build(trace, firstRecord);
}

void
Simulator::build(const replay::Trace *trace, std::size_t firstRecord)
{
    _mem = std::make_unique<MemorySystem>(_config.mem);

    _fetch = makeFetchUnit(_config.fetch, _program, *_mem);

    _records = trace ? std::make_unique<RecordStream>(*trace)
                     : std::make_unique<RecordStream>(_program, _dataMem);
    _pipeline = std::make_unique<Pipeline>(_config.cpu, *_fetch, *_mem,
                                           *_records, firstRecord);
    _memo = std::make_unique<LoopMemo>(*_records);

    _pipeline->setProbes(&_probes);
    _fetch->setProbes(&_probes);
    _mem->setProbes(&_probes);

    _pipeline->regStats(_stats, "cpu");
    _fetch->regStats(_stats, "fetch");
    _mem->regStats(_stats, "mem");

    if (_config.cpiStack) {
        _cpiStack = std::make_unique<obs::CpiStack>();
        _pipeline->setCpiStack(_cpiStack.get());
        _cpiStack->regStats(_stats, "cpi_stack");
    }
}

void
Simulator::step()
{
    _fetch->tick(_now);
    _mem->tick(_now);
    _pipeline->tick(_now);
    ++_fetchTicks;
    ++_memTicks;
    endCycle();
}

void
Simulator::stepGated()
{
    _fetchTicks += _fetch->tickGated(_now);
    _memTicks += _mem->tickGated(_now);
    _pipeline->tick(_now);
    endCycle();
}

void
Simulator::endCycle()
{
    ++_ticksExecuted;
    if (_pipeline->instructionsRetired() != _lastRetired) {
        _lastRetired = _pipeline->instructionsRetired();
        _lastProgressCycle = _now;
    }
    ++_now;
}

bool
Simulator::done() const
{
    return _pipeline->halted() && _pipeline->drained() &&
           _mem->quiescent();
}

void
Simulator::checkWatchdogs()
{
    if (_now > _config.maxCycles)
        simAbort("simulation exceeded ", _config.maxCycles, " cycles");
    if (!_pipeline->halted() &&
        _now - _lastProgressCycle > _config.progressWindow)
        simAbort("no instruction retired for ", _config.progressWindow,
                 " cycles: machine deadlocked at cycle ", _now);
    // Host-side: the guard's SIGINT/SIGTERM flag.
    checkInterrupt();
}

void
Simulator::skipIdleCycles()
{
    // Cheapest refusal first: on a busy cycle the pipeline issued.
    const Cycle last = _now - 1;
    Cycle next = _pipeline->nextEvent(last);
    if (next <= _now)
        return;
    next = std::min(next, _mem->nextEvent(last));
    if (next <= _now)
        return;
    next = std::min(next, _fetch->nextEvent(last));

    // The clock watchdogs are monotone in _now and nothing retires
    // while idle, so stopping at the first clock value that trips one
    // aborts at the same cycle, with the same message, as ticking.
    const auto plus = [](Cycle a, Cycle b) {
        return a > neverCycle - b ? neverCycle : a + b;
    };
    next = std::min(next, plus(_config.maxCycles, 1));
    if (!_pipeline->halted())
        next = std::min(next, plus(_lastProgressCycle,
                                   plus(_config.progressWindow, 1)));
    if (next <= _now)
        return;

    const Cycle n = next - _now;
    _fetch->repeatIdleTick(n);
    _mem->repeatIdleTick(n);
    _pipeline->repeatIdleTick(n);
    _now = next;
}

void
Simulator::runLoopProfiled()
{
    obs::ScopedPhase runPhase("sim.run", obs::Scope::Coarse);
    obs::CachedPhase fetchPhase("fetch"), memPhase("mem"),
        pipePhase("pipeline"), otherPhase("other");

    // Chained timestamps: four clock reads per cycle, every interval
    // attributed to some phase ("other" absorbs done()/watchdog/loop
    // bookkeeping), so the phase sum equals the loop's wall-clock.
    // Accumulated in locals and flushed once, to keep the profiled
    // loop's own overhead out of the attribution.
    std::uint64_t fetchNs = 0, memNs = 0, pipeNs = 0, otherNs = 0;
    std::uint64_t cycles = 0;
    auto flush = [&] {
        fetchPhase.add(fetchNs, cycles);
        memPhase.add(memNs, cycles);
        pipePhase.add(pipeNs, cycles);
        otherPhase.add(otherNs, cycles);
    };
    std::uint64_t t3 = obs::profileNowNs();
    try {
        while (!done()) {
            const std::uint64_t t0 = obs::profileNowNs();
            otherNs += t0 - t3;
            _fetch->tick(_now);
            const std::uint64_t t1 = obs::profileNowNs();
            _mem->tick(_now);
            const std::uint64_t t2 = obs::profileNowNs();
            _pipeline->tick(_now);
            t3 = obs::profileNowNs();
            fetchNs += t1 - t0;
            memNs += t2 - t1;
            pipeNs += t3 - t2;
            ++cycles;
            ++_fetchTicks;
            ++_memTicks;
            endCycle();
            checkWatchdogs();
        }
    } catch (...) {
        flush();
        throw;
    }
    flush();
}

namespace
{

/**
 * Components raise SimAbort without forensic context (they cannot see
 * the whole machine); decorate it here, once.
 */
template <class Loop>
void
withSnapshot(const Simulator &sim, Loop &&loop)
{
    try {
        loop();
    } catch (const SimAbort &e) {
        if (e.hasSnapshot())
            throw;
        throw SimAbort(e.what(), sim.snapshot());
    }
}

} // namespace

SimResult
Simulator::run()
{
    // One enabled() check per run: the detached hot path is the exact
    // pre-profiler loop, untouched (see obs/profiler.hh).
    if (obs::Profiler::enabled())
        withSnapshot(*this, [this] { runLoopProfiled(); });
    else
        runUntil(std::numeric_limits<std::size_t>::max());
    return result();
}

void
Simulator::runUntil(std::size_t record)
{
    // Gating and skipping are exact only when no one watches single cycles.
    const bool gate = !_probes.anyActive();
    // The memo also needs a timing model that compares no data
    // addresses: the data cache does.
    const bool memo = gate && !_mem->hasDcache();
    withSnapshot(*this, [this, record, gate, memo] {
        while (!done() && _pipeline->cursor() < record) {
            const std::size_t issued = _pipeline->cursor();
            if (gate) {
                stepGated();
                skipIdleCycles();
            } else {
                step();
            }
            checkWatchdogs();
            if (memo && _pipeline->cursor() != issued)
                memoize(record);
        }
    });
}

void
Simulator::memoize(std::size_t record)
{
    const std::size_t cursor = _pipeline->cursor();
    if (!_memo->boundary(cursor))
        return;
    // The records that give live loads and stores their addresses
    // after a skip must still be there.
    const auto span = _pipeline->resyncDataAddrs(false);
    if (!span)
        return;
    // Sized like the last one: a loop's checkpoints barely vary.
    StateWriter w(_now, &FpuDevice::contains, _memoSizes);
    saveState(w);
    _memoSizes = w.sizes();
    LoopMemo::Boundary b;
    b.cursor = cursor;
    b.now = _now;
    b.key = w.takeKey();
    b.fields = w.takeFields();
    b.payload = w.take();
    // The clock watchdogs are monotone, and every skipped period
    // repeats the retire gaps of the two observed ones, which did not
    // trip the progress window: landing at or before maxCycles aborts
    // where ticking would.
    const auto next =
        _memo->offer(std::move(b), record, _config.maxCycles, *span);
    if (!next)
        return;
    StateReader r(*next, "loop memo");
    restoreState(r);
    r.expectEnd();
    _pipeline->resyncDataAddrs(true);
}

MachineSnapshot
Simulator::snapshot() const
{
    MachineSnapshot s;
    s.cycle = _now;
    s.lastProgressCycle = _lastProgressCycle;
    s.instructionsRetired = _pipeline->instructionsRetired();
    s.lastRetiredPcs = _pipeline->recentRetiredPcs();
    std::ostringstream pipe, fetch, mem;
    _pipeline->dumpState(pipe);
    _fetch->dumpState(fetch);
    _mem->dumpState(mem);
    s.pipelineState = pipe.str();
    s.fetchState = fetch.str();
    s.memoryState = mem.str();
    return s;
}

void
Simulator::saveState(StateWriter &w) const
{
    w.stamp(_now);
    // Compared only as now - lastProgressCycle > progressWindow.
    w.stamp(_lastProgressCycle);
    w.count(_lastRetired);
    _pipeline->saveState(w);
    _fetch->saveState(w);
    _mem->saveState(w);
    // Flagged so a payload restores into a machine with or without a
    // CPI stack.
    w.b(_cpiStack != nullptr);
    if (_cpiStack)
        _cpiStack->saveState(w);
}

void
Simulator::restoreState(StateReader &r)
{
    _now = r.u64();
    _lastProgressCycle = r.u64();
    _lastRetired = r.u64();
    _pipeline->restoreState(r);
    const std::size_t cursor = _pipeline->cursor();
    // At most one instruction issues a cycle: a cursor above the clock
    // is corrupt, and the executor must not run to it.
    if (!_records->trace() && cursor > _now)
        r.fail("cursor ", cursor, " above the clock ", _now);
    _fetch->restoreState(r);
    _mem->restoreState(r);
    if (r.b()) {
        obs::CpiStack discard;
        (_cpiStack ? *_cpiStack : discard).restoreState(r);
    }
    if (!_records->seek(cursor))
        r.fail("cursor ", cursor, " past the program's record stream (",
               _records->endReason(), ")");
}

SimResult
Simulator::result() const
{
    SimResult r;
    r.totalCycles = _pipeline->haltCycle();
    r.instructions = _pipeline->instructionsRetired();
    for (const auto &name : _stats.counterNames())
        r.counters.emplace(name, _stats.counterValue(name));
    return r;
}

SimResult
runSimulation(const SimConfig &config, const Program &program)
{
    Simulator sim(config, program);
    return sim.run();
}

} // namespace pipesim
