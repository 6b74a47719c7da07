#include "core/tib_fetch.hh"

#include <ostream>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace pipesim
{

TibFetchUnit::TibFetchUnit(const FetchConfig &config,
                           const Program &program, MemorySystem &mem)
    : FetchUnit(program, mem), _cfg(config),
      _entryBytes(config.lineBytes),
      _bufferCapacity(config.iqBytes + config.iqbBytes)
{
    if (!isPowerOf2(_entryBytes) || _entryBytes < 2 * parcelBytes)
        fatal("TIB entry size must be a power of two >= 4 bytes");
    if (config.cacheBytes % _entryBytes != 0 ||
        config.cacheBytes < _entryBytes)
        fatal("TIB capacity must be a multiple of the entry size");
    if (_bufferCapacity < 2 * _entryBytes)
        fatal("TIB stream buffer must hold two entries' worth");
    _parityRetryLimit = config.parityRetryLimit;
    _entries.resize(config.cacheBytes / _entryBytes);
    reset(program.entry());
}

void
TibFetchUnit::reset(Addr entry)
{
    _buffer.clear();
    _occupancy = 0;
    _fetch.reset();
    _want.reset();
    _offchipInFlight = false;
    _squashDoneId = std::uint64_t(-1);
    _targetPlannedId = std::uint64_t(-1);
    _pendingTargets.clear();
    _follower.reset(entry);
    for (TibEntry &e : _entries)
        e = TibEntry{};
}

TibFetchUnit::TibEntry &
TibFetchUnit::entryFor(Addr target)
{
    return _entries[(target / _entryBytes) % _entries.size()];
}

Addr
TibFetchUnit::tailEnd() const
{
    if (!_buffer.empty())
        return _buffer.back().start + _buffer.back().len;
    return _follower.streamPos();
}

Addr
TibFetchUnit::staticWalk(Addr addr, unsigned n) const
{
    for (unsigned i = 0; i < n; ++i)
        addr += instSizeAt(addr);
    return addr;
}

void
TibFetchUnit::appendBytes(Addr start, unsigned len)
{
    if (len == 0)
        return;
    if (!_buffer.empty() &&
        _buffer.back().start + _buffer.back().len == start) {
        _buffer.back().len += len;
    } else {
        _buffer.push_back(Segment{start, len});
    }
    _occupancy += len;
}

void
TibFetchUnit::truncateBufferAt(Addr r)
{
    while (!_buffer.empty()) {
        Segment &tail = _buffer.back();
        if (r <= tail.start) {
            _squashedBytes += tail.len;
            _occupancy -= tail.len;
            _buffer.pop_back();
            continue;
        }
        if (r < tail.start + tail.len) {
            const unsigned cut = tail.start + tail.len - r;
            _squashedBytes += cut;
            _occupancy -= cut;
            tail.len -= cut;
        }
        break;
    }
}

void
TibFetchUnit::branchResolved(bool taken, Addr target)
{
    if (_follower.hasPending() && !_follower.frontResolved()) {
        _squashDoneId = _follower.frontId();
        if (taken) {
            _pendingTargets.push_back(target);
            const Addr r = staticWalk(_follower.streamPos(),
                                      _follower.frontSlotsLeft());
            truncateBufferAt(r);
            if (_fetch && !_fetch->dead) {
                if (_fetch->nextByte >= r)
                    _fetch->dead = true;
                else
                    _fetch->end = std::min(_fetch->end, r);
            }
        }
    }
    _follower.resolved(taken, target);
}

void
TibFetchUnit::handleResolvedRedirect()
{
    if (!_follower.hasPending() || !_follower.frontResolved() ||
        _follower.frontId() == _squashDoneId)
        return;
    _squashDoneId = _follower.frontId();
    if (_follower.frontTaken()) {
        _pendingTargets.push_back(_follower.frontTarget());
        const Addr r = staticWalk(_follower.streamPos(),
                                  _follower.frontSlotsLeft());
        truncateBufferAt(r);
        if (_fetch && !_fetch->dead) {
            if (_fetch->nextByte >= r)
                _fetch->dead = true;
            else
                _fetch->end = std::min(_fetch->end, r);
        }
    }
}

bool
TibFetchUnit::decoderStarving() const
{
    const auto next = _follower.nextAddr();
    if (!next)
        return false;
    if (_buffer.empty())
        return true;
    const Segment &head = _buffer.front();
    return head.start != *next || head.len < instSizeAt(*next);
}

void
TibFetchUnit::startFetchIfNeeded()
{
    if (_fetch)
        return; // one outstanding request

    if (_occupancy + _entryBytes > _bufferCapacity &&
        !decoderStarving())
        return;

    Addr start = tailEnd();
    std::optional<Addr> fill_target;
    Addr cap = Addr(-1);
    bool retargeted = false;

    if (_follower.hasPending() && _follower.frontResolved() &&
        _follower.frontTaken() &&
        _follower.frontId() != _targetPlannedId) {
        const Addr r = staticWalk(_follower.streamPos(),
                                  _follower.frontSlotsLeft());
        if (start >= r) {
            start = _follower.frontTarget();
            _targetPlannedId = _follower.frontId();
            retargeted = true;
        } else {
            cap = r; // pre-target sequential fetch toward the slots
        }
    }

    // The first fetch at a taken branch's target goes through the TIB
    // (whether the redirect is still pending or already applied).
    const bool is_target = !_pendingTargets.empty() &&
                           start == _pendingTargets.front();
    if (is_target)
        _pendingTargets.pop_front();

    if (is_target) {
        TibEntry &entry = entryFor(start);
        const bool tib_hit = entry.valid && entry.target == start &&
                             entry.validBytes > 0;
        if (_probes && _probes->icacheAccess.active())
            _probes->icacheAccess.notify(
                obs::CacheEvent{_obsNow, start, tib_hit});
        if (tib_hit) {
            // TIB hit: the buffered target instructions supply the
            // decoder while the off-chip fetch for the instructions
            // past the entry is launched.
            ++_tibHits;
            appendBytes(start, entry.validBytes);
            return; // fetch for start+validBytes begins next tick
        }
        ++_tibMisses;
        entry.valid = true;
        entry.target = start;
        entry.validBytes = 0;
        fill_target = start;
    }

    Fetch f;
    f.nextByte = start;
    f.end = std::min<Addr>(start + _entryBytes, cap);
    f.fillTibTarget = fill_target;
    f.retargeted = retargeted;
    _fetch = f;

    MemRequest req;
    req.addr = start;
    req.bytes = _entryBytes;
    req.isStore = false;
    const bool demand = decoderStarving() || _buffer.empty();
    req.cls = demand ? ReqClass::IFetchDemand : ReqClass::IPrefetch;
    _want = req;
    ++_offchipFetches;
}

void
TibFetchUnit::fillComplete(const MemRequest &req)
{
    if (_probes && _probes->fetchFill.active())
        _probes->fetchFill.notify(
            obs::FetchEvent{_obsNow, req.addr, _entryBytes, false});
    _offchipInFlight = false;
    _fetch.reset();
    noteGoodFill();
}

void
TibFetchUnit::fillParityError(const MemRequest &req)
{
    // Nothing was appended (no beats); undo the planning side effects
    // so the next tick re-plans the identical fetch.  A TIB-miss fetch
    // popped its pending target and left the entry with zero valid
    // bytes -- restoring the target makes the retry take the same
    // miss path and refill the entry.
    PIPESIM_ASSERT(_fetch, "parity error with no fetch active");
    const bool dead = _fetch->dead;
    const bool retargeted = _fetch->retargeted;
    const bool was_tib = _fetch->fillTibTarget.has_value();
    _offchipInFlight = false;
    _fetch.reset();
    if (dead)
        return;
    if (retargeted)
        _targetPlannedId = std::uint64_t(-1);
    if (was_tib)
        _pendingTargets.push_front(req.addr);
    noteParityError(req.addr, _entryBytes);
}

void
TibFetchUnit::fillBeat(const MemRequest &, Addr addr, unsigned bytes)
{
    PIPESIM_ASSERT(_fetch, "beat with no fetch active");
    if (_fetch->fillTibTarget) {
        TibEntry &entry = entryFor(*_fetch->fillTibTarget);
        if (entry.valid && entry.target == *_fetch->fillTibTarget &&
            entry.target + entry.validBytes == addr) {
            entry.validBytes = std::min(
                entry.validBytes + bytes, _entryBytes);
        }
    }
    if (_fetch->dead)
        return;
    const Addr lo = std::max(addr, _fetch->nextByte);
    const Addr hi = std::min<Addr>(addr + bytes, _fetch->end);
    if (lo >= hi)
        return;
    PIPESIM_ASSERT(lo == _fetch->nextByte, "non-streaming append");
    appendBytes(lo, hi - lo);
    _fetch->nextByte = hi;
}

const MemRequest *
TibFetchUnit::peekOffchip(ReqClass cls)
{
    return _want && _want->cls == cls ? &*_want : nullptr;
}

void
TibFetchUnit::offchipAccepted()
{
    PIPESIM_ASSERT(_want, "acceptance with no request outstanding");
    if (_probes && _probes->fetchRequest.active()) {
        _probes->fetchRequest.notify(obs::FetchEvent{
            _obsNow, _want->addr, _want->bytes,
            _want->cls == ReqClass::IFetchDemand});
    }
    _offchipInFlight = true;
    _want.reset();
}

void
TibFetchUnit::tick(Cycle now)
{
    _obsNow = now;
    handleResolvedRedirect();
    if (_want && _want->cls == ReqClass::IPrefetch &&
        (decoderStarving() || _buffer.empty()))
        _want->cls = ReqClass::IFetchDemand;
    startFetchIfNeeded();
}

bool
TibFetchUnit::instructionReady() const
{
    const auto next = _follower.nextAddr();
    if (!next || _buffer.empty())
        return false;
    const Segment &head = _buffer.front();
    if (head.len == 0)
        return false;
    PIPESIM_ASSERT(head.start == *next, "buffer head ", head.start,
                   " does not match stream position ", *next);
    return head.len >= instSizeAt(*next);
}

isa::FetchedInst
TibFetchUnit::take()
{
    PIPESIM_ASSERT(instructionReady(), "take() with nothing ready");
    const Addr pc = *_follower.nextAddr();
    const isa::Instruction &inst = decodeAt(pc);
    Segment &head = _buffer.front();
    head.start += inst.sizeBytes();
    head.len -= inst.sizeBytes();
    _occupancy -= inst.sizeBytes();
    if (head.len == 0)
        _buffer.pop_front();
    _follower.delivered(inst);
    ++_deliveredInsts;
    return isa::FetchedInst{pc, inst};
}

void
TibFetchUnit::dumpState(std::ostream &os) const
{
    const auto flags = os.flags();
    os << "tib fetch: " << _occupancy << "/" << _bufferCapacity
       << " B buffered in " << _buffer.size() << " segment(s)";
    if (const auto next = _follower.nextAddr())
        os << ", next pc 0x" << std::hex << *next << std::dec;
    else
        os << ", decode blocked on an unresolved branch";
    os << "\n";
    for (const Segment &seg : _buffer)
        os << "  segment: 0x" << std::hex << seg.start << std::dec
           << " (" << seg.len << " B)\n";
    if (_fetch) {
        os << "  fetch: next byte 0x" << std::hex << _fetch->nextByte
           << ", end 0x" << _fetch->end << std::dec
           << (_fetch->dead ? ", squashed" : "")
           << (_fetch->fillTibTarget ? ", filling TIB entry" : "")
           << "\n";
    }
    if (_want) {
        os << "  queued request: 0x" << std::hex << _want->addr
           << std::dec << " (" << _want->bytes << " B, "
           << reqClassName(_want->cls) << ")\n";
    }
    os << "  pending branch targets: " << _pendingTargets.size()
       << ", off-chip in flight: " << (_offchipInFlight ? "yes" : "no")
       << ", consecutive parity errors: " << _consecutiveParityErrors
       << "\n";
    os.flags(flags);
}

void
TibFetchUnit::saveState(StateWriter &w) const
{
    saveBaseState(w);
    _follower.saveState(w);
    w.u32(std::uint32_t(_entries.size()));
    for (const TibEntry &e : _entries) {
        w.b(e.valid);
        w.u32(e.target);
        w.u32(e.validBytes);
    }
    w.u32(std::uint32_t(_buffer.size()));
    for (const Segment &seg : _buffer) {
        w.u32(seg.start);
        w.u32(seg.len);
    }
    w.u32(_occupancy);
    w.b(_fetch.has_value());
    if (_fetch) {
        w.u32(_fetch->nextByte);
        w.u32(_fetch->end);
        w.b(_fetch->dead);
        w.b(_fetch->fillTibTarget.has_value());
        if (_fetch->fillTibTarget)
            w.u32(*_fetch->fillTibTarget);
        w.b(_fetch->retargeted);
    }
    w.b(_want.has_value());
    if (_want)
        saveMemRequest(w, *_want);
    w.b(_offchipInFlight);
    w.u64(_squashDoneId);
    w.u64(_targetPlannedId);
    w.u32(std::uint32_t(_pendingTargets.size()));
    for (Addr t : _pendingTargets)
        w.u32(t);
    w.u64(_deliveredInsts.value());
    w.u64(_tibHits.value());
    w.u64(_tibMisses.value());
    w.u64(_offchipFetches.value());
    w.u64(_squashedBytes.value());
}

void
TibFetchUnit::restoreState(StateReader &r)
{
    restoreBaseState(r);
    _follower.restoreState(r);
    if (r.u32() != _entries.size())
        r.fail("TIB geometry mismatch");
    for (TibEntry &e : _entries) {
        e.valid = r.b();
        e.target = r.u32();
        e.validBytes = r.u32();
    }
    _buffer.clear();
    const std::uint32_t segs = r.u32();
    for (std::uint32_t i = 0; i < segs; ++i) {
        Segment seg;
        seg.start = r.u32();
        seg.len = r.u32();
        _buffer.push_back(seg);
    }
    _occupancy = r.u32();
    _fetch.reset();
    if (r.b()) {
        Fetch f;
        f.nextByte = r.u32();
        f.end = r.u32();
        f.dead = r.b();
        if (r.b())
            f.fillTibTarget = r.u32();
        f.retargeted = r.b();
        _fetch = f;
    }
    _want.reset();
    if (r.b())
        _want = restoreMemRequest(r);
    _offchipInFlight = r.b();
    _squashDoneId = r.u64();
    _targetPlannedId = r.u64();
    _pendingTargets.clear();
    const std::uint32_t targets = r.u32();
    for (std::uint32_t i = 0; i < targets; ++i)
        _pendingTargets.push_back(r.u32());
    _deliveredInsts.set(r.u64());
    _tibHits.set(r.u64());
    _tibMisses.set(r.u64());
    _offchipFetches.set(r.u64());
    _squashedBytes.set(r.u64());
}

void
TibFetchUnit::regStats(StatGroup &stats, const std::string &prefix)
{
    stats.regCounter(prefix + ".delivered_insts", &_deliveredInsts,
                     "instructions delivered to decode");
    stats.regCounter(prefix + ".tib_hits", &_tibHits,
                     "taken branches whose target hit the TIB");
    stats.regCounter(prefix + ".tib_misses", &_tibMisses,
                     "taken branches that missed the TIB");
    stats.regCounter(prefix + ".offchip_fetches", &_offchipFetches,
                     "off-chip fetch requests issued");
    stats.regCounter(prefix + ".squashed_bytes", &_squashedBytes,
                     "buffered bytes squashed by taken branches");
    regParityStats(stats, prefix);
}

} // namespace pipesim
