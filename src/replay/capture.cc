#include "replay/capture.hh"

#include "obs/profiler.hh"
#include "sim/simulator.hh"

namespace pipesim::replay
{

TraceCapture::TraceCapture(Simulator &sim, std::string provenance)
    : _bus(sim.probes())
{
    _trace.meta.entry = sim.program().entry();
    _trace.meta.programSha256 = programSha256(sim.program());
    _trace.meta.provenance = std::move(provenance);
    _id = _bus.retire.connect([this](const obs::RetireEvent &ev) {
        TraceRecord r;
        r.pc = ev.inst.pc;
        r.hasMemAddr = ev.hasMemAddr;
        r.memIsStore = ev.memIsStore;
        r.memAddr = ev.memAddr;
        r.isPbr = ev.hasBranch;
        r.branchTaken = ev.branchTaken;
        r.branchTarget = ev.branchTarget;
        _records.push_back(r);
    });
}

TraceCapture::~TraceCapture()
{
    if (_connected)
        _bus.retire.disconnect(_id);
}

Trace
TraceCapture::finish()
{
    if (_connected) {
        _bus.retire.disconnect(_id);
        _connected = false;
    }
    _trace.records.assign(_records.begin(), _records.end());
    std::deque<TraceRecord>().swap(_records);
    encodeTrace(_trace); // refresh _trace.sha256
    return std::move(_trace);
}

Trace
captureTrace(const SimConfig &config, const Program &program,
             const std::string &provenance)
{
    obs::ScopedPhase phase("capture", obs::Scope::Coarse);
    Simulator sim(config, program);
    TraceCapture capture(sim, provenance);
    sim.run();
    return capture.finish();
}

} // namespace pipesim::replay
