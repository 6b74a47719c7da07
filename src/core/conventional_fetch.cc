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
    _parityRetryLimit = config.parityRetryLimit;
    reset(program.entry());
}

void
ConventionalFetchUnit::reset(Addr entry)
{
    _want.reset();
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
    noteGoodFill();
}

void
ConventionalFetchUnit::fillParityError(const MemRequest &)
{
    // No beats were delivered, so the region's sub-blocks are still
    // invalid; the demand/prefetch paths simply re-request.
    _outstanding = false;
    noteParityError(_outstandingAddr, _outstandingBytes);
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
    _obsNow = now;

    // Always-prefetch: the reference made last cycle launches a
    // prefetch of the next sequential location (lowest priority at
    // the memory interface), before the PC re-checks the cache --
    // this is how Hill's model gets ahead of the instruction stream.
    if (_cfg.alwaysPrefetch && _prefetchAddr && !_outstanding &&
        !_want) {
        const Addr p = *_prefetchAddr;
        const Addr region = Addr(alignDown(p, _busRegionBytes));
        if (firstMissing(region, _busRegionBytes)) {
            _want = makeRequest(p, ReqClass::IPrefetch);
            ++_prefetchFetches;
        }
        _prefetchAddr.reset();
    }

    // Demand path: the instruction the decoder needs next.
    const auto next = _follower.nextAddr();
    if (!next)
        return;
    const unsigned size = instSizeAt(*next);
    const auto missing = firstMissing(*next, size);
    if (!missing) {
        _missRecordedFor.reset();
        return;
    }
    if (_missRecordedFor != *next) {
        _cache.recordLookup(false);
        if (_probes && _probes->icacheAccess.active())
            _probes->icacheAccess.notify(
                obs::CacheEvent{_obsNow, *next, false});
        _missRecordedFor = *next;
    }
    if (inflightCovers(*missing))
        return; // the in-flight request will satisfy it
    if (!_outstanding && !_want) {
        _want = makeRequest(*missing, ReqClass::IFetchDemand);
        ++_demandFetches;
    } else if (_want && _want->cls == ReqClass::IPrefetch) {
        const bool covers =
            *missing >= _want->addr &&
            *missing < _want->addr + _want->bytes;
        if (covers) {
            // The PC now waits on this request, so it is presented
            // to the memory interface as an instruction fetch.
            _want->cls = ReqClass::IFetchDemand;
        } else {
            // Not sent yet and useless for the demand miss: the
            // instruction fetch replaces the queued prefetch.
            _want = makeRequest(*missing, ReqClass::IFetchDemand);
        }
        ++_demandFetches;
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
ConventionalFetchUnit::take()
{
    PIPESIM_ASSERT(instructionReady(), "take() with nothing ready");
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
ConventionalFetchUnit::branchResolved(bool taken, Addr target)
{
    _follower.resolved(taken, target);
}

const MemRequest *
ConventionalFetchUnit::peekOffchip(ReqClass cls)
{
    return _want && _want->cls == cls ? &*_want : nullptr;
}

void
ConventionalFetchUnit::offchipAccepted()
{
    PIPESIM_ASSERT(_want, "acceptance with no request outstanding");
    if (_probes && _probes->fetchRequest.active()) {
        _probes->fetchRequest.notify(obs::FetchEvent{
            _obsNow, _want->addr, _want->bytes,
            _want->cls == ReqClass::IFetchDemand});
    }
    _outstanding = true;
    _outstandingAddr = _want->addr;
    _outstandingBytes = _want->bytes;
    _want.reset();
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
    if (_want) {
        os << "  queued request: 0x" << std::hex << _want->addr
           << std::dec << " (" << _want->bytes << " B, "
           << reqClassName(_want->cls) << ")\n";
    }
    if (_prefetchAddr)
        os << "  pending prefetch target: 0x" << std::hex
           << *_prefetchAddr << std::dec << "\n";
    os << "  consecutive parity errors: " << _consecutiveParityErrors
       << "\n";
    os.flags(flags);
}

void
ConventionalFetchUnit::saveState(StateWriter &w) const
{
    saveBaseState(w);
    _follower.saveState(w);
    _cache.saveState(w);
    w.b(_want.has_value());
    if (_want)
        saveMemRequest(w, *_want);
    w.b(_outstanding);
    w.u32(_outstandingAddr);
    w.u32(_outstandingBytes);
    w.b(_prefetchAddr.has_value());
    if (_prefetchAddr)
        w.u32(*_prefetchAddr);
    w.b(_missRecordedFor.has_value());
    if (_missRecordedFor)
        w.u32(*_missRecordedFor);
    w.u64(_deliveredInsts.value());
    w.u64(_demandFetches.value());
    w.u64(_prefetchFetches.value());
}

void
ConventionalFetchUnit::restoreState(StateReader &r)
{
    restoreBaseState(r);
    _follower.restoreState(r);
    _cache.restoreState(r);
    _want.reset();
    if (r.b())
        _want = restoreMemRequest(r);
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
    regParityStats(stats, prefix);
    _cache.regStats(stats, prefix + ".icache");
}

} // namespace pipesim
