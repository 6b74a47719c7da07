#include "core/pipe_fetch.hh"

#include <ostream>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace pipesim
{

PipeFetchUnit::PipeFetchUnit(const FetchConfig &config,
                             const Program &program, MemorySystem &mem)
    : FetchUnit(program, mem), _cfg(config),
      _cache(config.cacheBytes, config.lineBytes),
      _capacity(config.iqBytes + config.iqbBytes)
{
    _parityRetryLimit = config.parityRetryLimit;
    if (config.iqBytes < 2 * parcelBytes)
        fatal("IQ must hold at least one two-parcel instruction");
    if (config.iqbBytes < config.lineBytes)
        fatal("IQB (", config.iqbBytes, " B) must hold a full cache line (",
              config.lineBytes, " B)");
    reset(program.entry());
}

void
PipeFetchUnit::reset(Addr entry)
{
    _buffer.clear();
    _occupancy = 0;
    _fill.reset();
    _want.reset();
    _offchipInFlight = false;
    _squashDoneId = std::uint64_t(-1);
    _follower.reset(entry);
    _cache.invalidateAll();
}

Addr
PipeFetchUnit::tailEnd() const
{
    if (!_buffer.empty())
        return _buffer.back().start + _buffer.back().len;
    return _follower.streamPos();
}

Addr
PipeFetchUnit::staticWalk(Addr addr, unsigned n) const
{
    for (unsigned i = 0; i < n; ++i)
        addr += instSizeAt(addr);
    return addr;
}

void
PipeFetchUnit::appendBytes(Addr start, unsigned len)
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
PipeFetchUnit::truncateBufferAt(Addr r)
{
    // The buffered stream from the current delivery position onward
    // is a single sequential run (redirect-target segments are only
    // created for already-squashed redirects), so squashing affects
    // the tail segment(s) whose addresses reach past r.
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
PipeFetchUnit::branchResolved(bool taken, Addr target)
{
    // Squash bookkeeping must run before the follower applies a
    // zero-delay-slot redirect.  Squashing is only possible when the
    // resolution lands on the front pending redirect; otherwise the
    // tick-time handler deals with it once the redirect reaches the
    // front.
    if (_follower.hasPending() && !_follower.frontResolved()) {
        _squashDoneId = _follower.frontId();
        if (taken) {
            const Addr r = staticWalk(_follower.streamPos(),
                                      _follower.frontSlotsLeft());
            truncateBufferAt(r);
            if (_fill && !_fill->dead) {
                if (_fill->nextByte >= r)
                    _fill->dead = true;
                else
                    _fill->bufferCap = std::min(_fill->bufferCap, r);
            }
        }
    }
    _follower.resolved(taken, target);
}

void
PipeFetchUnit::handleResolvedRedirect()
{
    // A redirect resolved while it was not the front (its elder was
    // still draining delay slots) is squashed once it is promoted.
    if (!_follower.hasPending() || !_follower.frontResolved() ||
        _follower.frontId() == _squashDoneId)
        return;
    _squashDoneId = _follower.frontId();
    if (_follower.frontTaken()) {
        const Addr r = staticWalk(_follower.streamPos(),
                                  _follower.frontSlotsLeft());
        truncateBufferAt(r);
        if (_fill && !_fill->dead) {
            if (_fill->nextByte >= r)
                _fill->dead = true;
            else
                _fill->bufferCap = std::min(_fill->bufferCap, r);
        }
    }
}

std::optional<PipeFetchUnit::FillPlan>
PipeFetchUnit::planNextFill() const
{
    const Addr te = tailEnd();
    if (_follower.hasPending() && _follower.frontResolved() &&
        _follower.frontTaken() &&
        _follower.frontId() != _targetPlannedId) {
        const Addr r = staticWalk(_follower.streamPos(),
                                  _follower.frontSlotsLeft());
        if (te >= r)
            return FillPlan{_follower.frontTarget(), true};
        return FillPlan{te, false};
    }
    return FillPlan{te, false};
}

bool
PipeFetchUnit::decoderStarving() const
{
    const auto next = _follower.nextAddr();
    if (!next)
        return false; // blocked on a branch, not on bytes
    if (_buffer.empty())
        return true;
    const Segment &head = _buffer.front();
    if (head.start != *next)
        return true;
    return head.len < instSizeAt(*next);
}

bool
PipeFetchUnit::fillGuaranteed(Addr fill_start, bool new_segment) const
{
    if (new_segment)
        return true; // resolved-taken branch target: will execute

    if (_follower.hasPending()) {
        if (_follower.frontResolved() && !_follower.frontTaken()) {
            // Fall-through resolved: sequential flow continues; any
            // further constraint comes from a younger PBR, handled
            // conservatively by treating the window as guaranteed
            // only up to the younger redirect once it is the front.
            return true;
        }
        const Addr r = staticWalk(_follower.streamPos(),
                                  _follower.frontSlotsLeft());
        return fill_start < r;
    }

    // No PBR in flight: scan the buffered, undelivered instructions
    // (the IQ/IQB contents) for a PBR.  If none is found the next
    // sequential line is guaranteed to contain at least one
    // unconditionally executed instruction.
    auto next = _follower.nextAddr();
    if (!next)
        return false;
    Addr cursor = *next;
    bool in_stream = false;
    for (const Segment &seg : _buffer) {
        if (!in_stream) {
            if (cursor < seg.start || cursor >= seg.start + seg.len)
                continue;
            in_stream = true;
        } else {
            cursor = seg.start; // stream resumes at a redirect target
        }
        while (cursor < seg.start + seg.len) {
            const isa::Instruction &inst = decodeAt(cursor);
            if (cursor + inst.sizeBytes() > seg.start + seg.len) {
                // The visible window ends mid-instruction; no PBR was
                // seen, so the next line is guaranteed (paper 4.2).
                return true;
            }
            if (inst.isPbr()) {
                const Addr r =
                    staticWalk(cursor + inst.sizeBytes(), inst.count);
                return fill_start < r;
            }
            cursor += inst.sizeBytes();
        }
    }
    return true;
}

void
PipeFetchUnit::startFillIfNeeded()
{
    if (_fill)
        return; // one fill (and one off-chip request) at a time

    if (_occupancy > _cfg.iqBytes && !decoderStarving())
        return; // IQB portion still occupied; no prefetch trigger

    const auto plan = planNextFill();
    if (!plan)
        return;

    const Addr line = _cache.lineBase(plan->start);
    const Addr line_end = line + _cfg.lineBytes;
    Addr buffer_cap = line_end;
    if (plan->newSegment) {
        _targetPlannedId = _follower.frontId();
    } else if (_follower.hasPending() && _follower.frontResolved() &&
               _follower.frontTaken() &&
               _follower.frontId() != _targetPlannedId) {
        // Pre-target sequential fill: cap at the redirect point.
        const Addr r = staticWalk(_follower.streamPos(),
                                  _follower.frontSlotsLeft());
        buffer_cap = std::min(buffer_cap, r);
    }

    const bool hit = _cache.lineValid(line);
    _cache.recordLookup(hit);
    if (_probes && _probes->icacheAccess.active())
        _probes->icacheAccess.notify(obs::CacheEvent{_obsNow, line, hit});
    if (hit) {
        _fill = Fill{line, plan->start, buffer_cap, false,
                     plan->newSegment};
        performCacheFill();
        return;
    }

    if (_cfg.offchipPolicy == OffchipPolicy::GuaranteedOnly &&
        !fillGuaranteed(plan->start, plan->newSegment)) {
        ++_blockedOnGuarantee;
        return;
    }

    // Whole-line off-chip fetch, streaming into the cache and the
    // queues as beats arrive.
    _cache.allocate(line);
    _fill = Fill{line, plan->start, buffer_cap, true, plan->newSegment};

    MemRequest req;
    req.addr = line;
    req.bytes = _cfg.lineBytes;
    req.isStore = false;
    const bool demand = decoderStarving() || _buffer.empty();
    req.cls = demand ? ReqClass::IFetchDemand : ReqClass::IPrefetch;
    if (demand)
        ++_offchipDemandLines;
    else
        ++_offchipPrefetchLines;
    _want = req;
}

void
PipeFetchUnit::fillParityError(const MemRequest &)
{
    // A corrupted transfer delivered no beats, so nothing was
    // appended and the allocated line is still invalid: dropping the
    // fill makes the next tick re-plan and re-request it.
    PIPESIM_ASSERT(_fill && _fill->offchip,
                   "parity error with no off-chip fill active");
    const Addr line = _fill->lineBase;
    const bool dead = _fill->dead;
    if (_fill->newSegment && _follower.hasPending() &&
        _follower.frontId() == _targetPlannedId)
        _targetPlannedId = std::uint64_t(-1);
    _offchipInFlight = false;
    _fill.reset();
    if (!dead)
        noteParityError(line, _cfg.lineBytes);
}

void
PipeFetchUnit::performCacheFill()
{
    PIPESIM_ASSERT(_fill && !_fill->offchip, "no cache fill in progress");
    const Addr line_end = _fill->lineBase + _cfg.lineBytes;
    const Addr hi = std::min(line_end, _fill->bufferCap);
    if (_fill->nextByte < hi) {
        if (_fill->newSegment) {
            _buffer.push_back(Segment{_fill->nextByte, 0});
            _fill->newSegment = false;
        }
        appendBytes(_fill->nextByte, hi - _fill->nextByte);
    }
    _fill.reset();
}

void
PipeFetchUnit::fillBeat(const MemRequest &, Addr addr, unsigned bytes)
{
    PIPESIM_ASSERT(_fill && _fill->offchip,
                   "beat arrived with no off-chip fill active");
    _cache.fill(addr, bytes);
    if (_fill->dead)
        return;
    const Addr lo = std::max(addr, _fill->nextByte);
    const Addr hi = std::min<Addr>(addr + bytes, _fill->bufferCap);
    if (lo >= hi)
        return;
    PIPESIM_ASSERT(lo == _fill->nextByte, "non-streaming buffer append");
    if (_fill->newSegment) {
        _buffer.push_back(Segment{lo, 0});
        _fill->newSegment = false;
    }
    appendBytes(lo, hi - lo);
    _fill->nextByte = hi;
}

void
PipeFetchUnit::fillComplete(const MemRequest &)
{
    if (_probes && _probes->fetchFill.active() && _fill) {
        _probes->fetchFill.notify(obs::FetchEvent{
            _obsNow, _fill->lineBase, _cfg.lineBytes, false});
    }
    _offchipInFlight = false;
    _fill.reset();
    noteGoodFill();
}

const MemRequest *
PipeFetchUnit::peekOffchip(ReqClass cls)
{
    return _want && _want->cls == cls ? &*_want : nullptr;
}

void
PipeFetchUnit::offchipAccepted()
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
PipeFetchUnit::tick(Cycle now)
{
    _obsNow = now;
    handleResolvedRedirect();

    // A prefetch-class request whose line the decoder now starves
    // for is promoted to demand priority.
    if (_want && _want->cls == ReqClass::IPrefetch &&
        (decoderStarving() || _buffer.empty())) {
        _want->cls = ReqClass::IFetchDemand;
    }

    startFillIfNeeded();
}

bool
PipeFetchUnit::instructionReady() const
{
    const auto next = _follower.nextAddr();
    if (!next || _buffer.empty())
        return false;
    const Segment &head = _buffer.front();
    PIPESIM_ASSERT(head.start == *next, "buffer head ", head.start,
                   " does not match stream position ", *next);
    return head.len >= instSizeAt(*next);
}

isa::FetchedInst
PipeFetchUnit::take()
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
PipeFetchUnit::dumpState(std::ostream &os) const
{
    const auto flags = os.flags();
    os << "pipe fetch: " << _occupancy << "/" << _capacity
       << " B buffered in " << _buffer.size() << " segment(s)";
    if (const auto next = _follower.nextAddr())
        os << ", next pc 0x" << std::hex << *next << std::dec;
    else
        os << ", decode blocked on an unresolved branch";
    os << "\n";
    for (const Segment &seg : _buffer)
        os << "  segment: 0x" << std::hex << seg.start << std::dec
           << " (" << seg.len << " B)\n";
    if (_fill) {
        os << "  fill: line 0x" << std::hex << _fill->lineBase
           << ", next byte 0x" << _fill->nextByte << std::dec
           << (_fill->offchip ? ", off-chip" : ", from cache")
           << (_fill->dead ? ", squashed" : "") << "\n";
    }
    if (_want) {
        os << "  queued request: 0x" << std::hex << _want->addr
           << std::dec << " (" << _want->bytes << " B, "
           << reqClassName(_want->cls) << ")\n";
    }
    os << "  off-chip in flight: " << (_offchipInFlight ? "yes" : "no")
       << ", consecutive parity errors: " << _consecutiveParityErrors
       << "\n";
    os.flags(flags);
}

void
PipeFetchUnit::saveState(StateWriter &w) const
{
    saveBaseState(w);
    _follower.saveState(w);
    _cache.saveState(w);
    w.u32(std::uint32_t(_buffer.size()));
    for (const Segment &seg : _buffer) {
        w.u32(seg.start);
        w.u32(seg.len);
    }
    w.u32(_occupancy);
    w.b(_fill.has_value());
    if (_fill) {
        w.u32(_fill->lineBase);
        w.u32(_fill->nextByte);
        w.u32(_fill->bufferCap);
        w.b(_fill->offchip);
        w.b(_fill->newSegment);
        w.b(_fill->dead);
    }
    w.b(_want.has_value());
    if (_want)
        saveMemRequest(w, *_want);
    w.b(_offchipInFlight);
    w.u64(_squashDoneId);
    w.u64(_targetPlannedId);
    w.u64(_deliveredInsts.value());
    w.u64(_offchipDemandLines.value());
    w.u64(_offchipPrefetchLines.value());
    w.u64(_squashedBytes.value());
    w.u64(_blockedOnGuarantee.value());
}

void
PipeFetchUnit::restoreState(StateReader &r)
{
    restoreBaseState(r);
    _follower.restoreState(r);
    _cache.restoreState(r);
    _buffer.clear();
    const std::uint32_t segs = r.u32();
    for (std::uint32_t i = 0; i < segs; ++i) {
        Segment seg;
        seg.start = r.u32();
        seg.len = r.u32();
        _buffer.push_back(seg);
    }
    _occupancy = r.u32();
    if (_occupancy > _capacity)
        r.fail("buffer occupancy ", _occupancy, " > capacity ",
               _capacity);
    _fill.reset();
    if (r.b()) {
        Fill f;
        f.lineBase = r.u32();
        f.nextByte = r.u32();
        f.bufferCap = r.u32();
        f.offchip = r.b();
        f.newSegment = r.b();
        f.dead = r.b();
        _fill = f;
    }
    _want.reset();
    if (r.b())
        _want = restoreMemRequest(r);
    _offchipInFlight = r.b();
    _squashDoneId = r.u64();
    _targetPlannedId = r.u64();
    _deliveredInsts.set(r.u64());
    _offchipDemandLines.set(r.u64());
    _offchipPrefetchLines.set(r.u64());
    _squashedBytes.set(r.u64());
    _blockedOnGuarantee.set(r.u64());
}

void
PipeFetchUnit::regStats(StatGroup &stats, const std::string &prefix)
{
    stats.regCounter(prefix + ".delivered_insts", &_deliveredInsts,
                     "instructions delivered to decode");
    stats.regCounter(prefix + ".offchip_demand_lines",
                     &_offchipDemandLines,
                     "demand-class off-chip line fetches");
    stats.regCounter(prefix + ".offchip_prefetch_lines",
                     &_offchipPrefetchLines,
                     "prefetch-class off-chip line fetches");
    stats.regCounter(prefix + ".squashed_bytes", &_squashedBytes,
                     "buffered bytes squashed by taken branches");
    stats.regCounter(prefix + ".blocked_on_guarantee",
                     &_blockedOnGuarantee,
                     "fill opportunities blocked by the guarantee policy");
    regParityStats(stats, prefix);
    _cache.regStats(stats, prefix + ".icache");
}

} // namespace pipesim
