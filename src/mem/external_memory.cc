#include "mem/external_memory.hh"

#include <ostream>

#include "common/log.hh"

namespace pipesim
{

ExternalMemory::ExternalMemory(unsigned access_time, bool pipelined)
    : _accessTime(access_time), _pipelined(pipelined)
{
    PIPESIM_ASSERT(access_time >= 1, "memory access time must be >= 1");
}

bool
ExternalMemory::canAccept() const
{
    if (_pipelined)
        return true;
    return idle();
}

void
ExternalMemory::accept(const MemRequest &req, Cycle now)
{
    PIPESIM_ASSERT(canAccept(), "request accepted while memory busy");
    if (req.isStore)
        ++_writes;
    else
        ++_reads;
    _inflight.push_back(InFlight{req, now + _accessTime});
}

bool
ExternalMemory::tick(Cycle now)
{
    if (_inflight.empty())
        return false;
    ++_busyCycles;
    bool retired = false;
    while (!_inflight.empty() && _inflight.front().req.isStore &&
           _inflight.front().readyAt <= now) {
        _inflight.pop_front();
        retired = true;
    }
    return retired;
}

const MemRequest *
ExternalMemory::peekReady(Cycle now) const
{
    if (_inflight.empty())
        return nullptr;
    const InFlight &head = _inflight.front();
    if (head.req.isStore || head.readyAt > now)
        return nullptr;
    return &head.req;
}

MemRequest
ExternalMemory::popReady(Cycle now)
{
    PIPESIM_ASSERT(peekReady(now), "popReady with no ready response");
    MemRequest req = std::move(_inflight.front().req);
    _inflight.pop_front();
    return req;
}

void
ExternalMemory::dumpState(std::ostream &os) const
{
    os << "external memory: access time " << _accessTime
       << (_pipelined ? ", pipelined" : ", unpipelined")
       << (_transferring ? ", response transferring" : "") << "\n";
    os << "in flight: " << _inflight.size() << "\n";
    const auto flags = os.flags();
    for (const InFlight &f : _inflight) {
        os << "  " << (f.req.isStore ? "store" : reqClassName(f.req.cls))
           << " addr 0x" << std::hex << f.req.addr << std::dec << " ("
           << f.req.bytes << " B) ready at cycle " << f.readyAt << "\n";
    }
    os.flags(flags);
}

void
ExternalMemory::regStats(StatGroup &stats, const std::string &prefix)
{
    stats.regCounter(prefix + ".reads", &_reads,
                     "read requests accepted");
    stats.regCounter(prefix + ".writes", &_writes,
                     "write requests accepted");
    stats.regCounter(prefix + ".busy_cycles", &_busyCycles,
                     "cycles with at least one request in flight");
}

} // namespace pipesim
