#include "core/conventional_fetch.hh"

#include <ostream>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace pipesim
{

namespace
{

/** Sub-block size: one instruction slot. */
unsigned
subblockBytesFor(const Program &program)
{
    return program.mode() == isa::FormatMode::Fixed32 ? 2 * parcelBytes
                                                      : parcelBytes;
}

} // namespace

ConventionalFetchUnit::ConventionalFetchUnit(const FetchConfig &config,
                                             const Program &program,
                                             MemorySystem &mem)
    : FetchUnit(program, mem), _cfg(config),
      _cache(config.cacheBytes, config.lineBytes,
             std::min(config.lineBytes, subblockBytesFor(program))),
      _busRegionBytes(mem.config().busWidthBytes)
{
    // With the compact (16/32-bit) format an instruction can straddle
    // a line boundary.  In a single-frame cache the two halves evict
    // each other forever (demand fetch and always-prefetch retag the
    // only frame), so that geometry is rejected.
    if (program.mode() == isa::FormatMode::Compact &&
        config.cacheBytes == _cache.lineBytes())
        fatal("conventional cache needs at least two frames for the "
              "compact instruction format (cache ",
              config.cacheBytes, " B, line ", _cache.lineBytes(), " B)");
    reset(program.entry());
}

void
ConventionalFetchUnit::resetUnit(Addr entry)
{
    _outstanding = false;
    _prefetchAddr.reset();
    _missRecordedFor.reset();
    _follower.reset(entry);
    _cache.invalidateAll();
}

std::optional<Addr>
ConventionalFetchUnit::firstMissing(Addr addr, unsigned bytes) const
{
    for (Addr a = _cache.subblockBase(addr); a < addr + bytes;
         a += _cache.subblockBytes()) {
        if (!_cache.subblockValid(a))
            return a;
    }
    return std::nullopt;
}

bool
ConventionalFetchUnit::inflightCovers(Addr addr) const
{
    return _outstanding && addr >= _outstandingAddr &&
           addr < _outstandingAddr + _outstandingBytes;
}

MemRequest
ConventionalFetchUnit::makeRequest(Addr addr, ReqClass cls)
{
    const Addr region = Addr(alignDown(addr, _busRegionBytes));
    if (!_cache.linePresent(region))
        _cache.allocate(region);

    MemRequest req;
    req.addr = region;
    req.bytes = _busRegionBytes;
    req.isStore = false;
    req.cls = cls;
    return req;
}

void
ConventionalFetchUnit::fillComplete(const MemRequest &)
{
    if (_probes && _probes->fetchFill.active()) {
        _probes->fetchFill.notify(obs::FetchEvent{
            _obsNow, _outstandingAddr, _outstandingBytes, false});
    }
    _outstanding = false;
}

void
ConventionalFetchUnit::fillBeat(const MemRequest &, Addr addr,
                                unsigned bytes)
{
    // The line was allocated when the request was made and no other
    // allocation can intervene (single outstanding request), except a
    // prefetch allocation for a region in the same frame; guard by
    // re-checking the tag.
    if (_cache.linePresent(addr))
        _cache.fill(addr, bytes);
}

void
ConventionalFetchUnit::tick(Cycle now)
{
    beginTick(now);
    _idle = true;

    // Always-prefetch: the reference made last cycle launches a
    // prefetch of the next sequential location (lowest priority at
    // the memory interface), before the PC re-checks the cache --
    // this is how Hill's model gets ahead of the instruction stream.
    if (_cfg.alwaysPrefetch && _prefetchAddr && !_outstanding &&
        !request()) {
        const Addr p = *_prefetchAddr;
        const Addr region = Addr(alignDown(p, _busRegionBytes));
        if (firstMissing(region, _busRegionBytes)) {
            post(makeRequest(p, ReqClass::IPrefetch));
            ++_prefetchFetches;
        }
        _prefetchAddr.reset();
        _idle = false;
    }

    // Demand path: the instruction the decoder needs next.
    const auto next = _follower.nextAddr();
    if (!next)
        return;
    const unsigned size = instSizeAt(*next);
    const auto missing = firstMissing(*next, size);
    if (!missing) {
        if (_missRecordedFor)
            _idle = false;
        _missRecordedFor.reset();
        return;
    }
    if (_missRecordedFor != *next) {
        _cache.recordLookup(false);
        if (_probes && _probes->icacheAccess.active())
            _probes->icacheAccess.notify(
                obs::CacheEvent{_obsNow, *next, false});
        _missRecordedFor = *next;
        _idle = false;
    }
    if (inflightCovers(*missing))
        return; // the in-flight request will satisfy it
    const MemRequest *want = request();
    if (!_outstanding && !want) {
        post(makeRequest(*missing, ReqClass::IFetchDemand));
        ++_demandFetches;
        _idle = false;
    } else if (want && want->cls == ReqClass::IPrefetch) {
        const bool covers =
            *missing >= want->addr && *missing < want->addr + want->bytes;
        if (covers) {
            // The PC now waits on this request, so it is presented
            // to the memory interface as an instruction fetch.
            promoteToDemand();
        } else {
            // Not sent yet and useless for the demand miss: the
            // instruction fetch replaces the queued prefetch.
            post(makeRequest(*missing, ReqClass::IFetchDemand));
        }
        ++_demandFetches;
        _idle = false;
        // An already in-flight prefetch keeps its (lowest) priority
        // until it completes -- the cost Hill notes.
    }
}

bool
ConventionalFetchUnit::instructionReady() const
{
    const auto next = _follower.nextAddr();
    if (!next)
        return false;
    return _cache.bytesValid(*next, instSizeAt(*next));
}

isa::FetchedInst
ConventionalFetchUnit::takeNext()
{
    const Addr pc = *_follower.nextAddr();
    const isa::Instruction &inst = decodeAt(pc);
    _cache.recordLookup(true);
    if (_probes && _probes->icacheAccess.active())
        _probes->icacheAccess.notify(obs::CacheEvent{_obsNow, pc, true});
    _missRecordedFor.reset();
    _follower.delivered(inst);
    ++_deliveredInsts;
    // Always-prefetch: reference made, note the next sequential
    // location (even if it maps into the next cache line).
    _prefetchAddr = pc + inst.sizeBytes();
    return isa::FetchedInst{pc, inst};
}

void
ConventionalFetchUnit::resolveBranch(bool taken, Addr target)
{
    _follower.resolved(taken, target);
}

void
ConventionalFetchUnit::offchipAccepted(const MemRequest &req)
{
    _outstanding = true;
    _outstandingAddr = req.addr;
    _outstandingBytes = req.bytes;
}

void
ConventionalFetchUnit::dumpState(std::ostream &os) const
{
    const auto flags = os.flags();
    os << "conventional fetch:";
    if (const auto next = _follower.nextAddr())
        os << " next pc 0x" << std::hex << *next << std::dec;
    else
        os << " decode blocked on an unresolved branch";
    os << "\n";
    if (_outstanding) {
        os << "  outstanding fetch: 0x" << std::hex << _outstandingAddr
           << std::dec << " (" << _outstandingBytes << " B)\n";
    }
    if (const MemRequest *req = request()) {
        os << "  queued request: 0x" << std::hex << req->addr
           << std::dec << " (" << req->bytes << " B, "
           << reqClassName(req->cls) << ")\n";
    }
    if (_prefetchAddr)
        os << "  pending prefetch target: 0x" << std::hex
           << *_prefetchAddr << std::dec << "\n";
    os.flags(flags);
}

void
ConventionalFetchUnit::saveState(StateWriter &w) const
{
    saveBaseState(w);
    _follower.saveState(w);
    _cache.saveState(w);
    saveRequest(w);
    w.b(_outstanding);
    w.u32(_outstandingAddr);
    w.u32(_outstandingBytes);
    w.b(_prefetchAddr.has_value());
    if (_prefetchAddr)
        w.u32(*_prefetchAddr);
    w.b(_missRecordedFor.has_value());
    if (_missRecordedFor)
        w.u32(*_missRecordedFor);
    w.count(_deliveredInsts.value());
    w.count(_demandFetches.value());
    w.count(_prefetchFetches.value());
}

void
ConventionalFetchUnit::restoreUnit(StateReader &r)
{
    restoreBaseState(r);
    _follower.restoreState(r);
    _cache.restoreState(r);
    restoreRequest(r);
    _outstanding = r.b();
    _outstandingAddr = r.u32();
    _outstandingBytes = r.u32();
    _prefetchAddr.reset();
    if (r.b())
        _prefetchAddr = r.u32();
    _missRecordedFor.reset();
    if (r.b())
        _missRecordedFor = r.u32();
    _deliveredInsts.set(r.u64());
    _demandFetches.set(r.u64());
    _prefetchFetches.set(r.u64());
}

void
ConventionalFetchUnit::regStats(StatGroup &stats, const std::string &prefix)
{
    stats.regCounter(prefix + ".delivered_insts", &_deliveredInsts,
                     "instructions delivered to decode");
    stats.regCounter(prefix + ".demand_fetches", &_demandFetches,
                     "demand fetch requests issued");
    stats.regCounter(prefix + ".prefetch_fetches", &_prefetchFetches,
                     "always-prefetch requests issued");
    _cache.regStats(stats, prefix + ".icache");
}

} // namespace pipesim
