#include "sim/simulator.hh"

#include <limits>
#include <sstream>

#include "common/abort.hh"
#include "common/log.hh"
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
    _mem = std::make_unique<MemorySystem>(_config.mem, _dataMem);

    _fetch = makeFetchUnit(_config.fetch, _program, *_mem);

    _pipeline = std::make_unique<Pipeline>(_config.cpu, *_fetch, *_mem,
                                           trace, firstRecord);

    _pipeline->setProbes(&_probes);
    _fetch->setProbes(&_probes);
    _mem->setProbes(&_probes);

    if (_config.fault.enabled()) {
        _faultInjector =
            std::make_unique<fault::FaultInjector>(_config.fault);
        _mem->setFaultInjector(_faultInjector.get());
        _faultInjector->regStats(_stats, "fault");
    }

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
    // Host-side watchdogs: the sweep's per-point wall-clock deadline
    // (snapshot attached here so TimeoutAbort keeps its type through
    // run()'s decoration) and the guard's SIGINT/SIGTERM flag.
    if (_config.cancelFlag &&
        _config.cancelFlag->load(std::memory_order_relaxed))
        throw TimeoutAbort("abort: point exceeded its wall-clock "
                           "deadline (timeout): cancelled at cycle " +
                               std::to_string(_now),
                           snapshot());
    checkInterrupt();
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
            if (_pipeline->instructionsRetired() != _lastRetired) {
                _lastRetired = _pipeline->instructionsRetired();
                _lastProgressCycle = _now;
            }
            ++_now;
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
    withSnapshot(*this, [this, record] {
        while (!done() && _pipeline->cursor() < record) {
            step();
            checkWatchdogs();
        }
    });
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
    if (_faultInjector)
        fatal("cannot checkpoint a fault-injected machine: the "
              "injector's random stream is not part of the state");
    w.u64(_now);
    w.u64(_lastProgressCycle);
    w.u64(_lastRetired);
    _pipeline->saveState(w);
    _fetch->saveState(w);
    _mem->saveState(w);
    // configSha256 does not cover cpiStack, so the stack is flagged.
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
    _fetch->restoreState(r);
    _mem->restoreState(r);
    if (r.b()) {
        obs::CpiStack discard;
        (_cpiStack ? *_cpiStack : discard).restoreState(r);
    }
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
