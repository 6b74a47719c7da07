#include "mem/memory_system.hh"

#include <array>
#include <ostream>
#include <utility>

#include "common/bitutil.hh"
#include "common/log.hh"

namespace pipesim
{

MemorySystem::MemorySystem(const MemSystemConfig &config)
    : _config(config), _extMem(config.accessTime, config.pipelined),
      _fpu(config.fpuLatency)
{
    PIPESIM_ASSERT(config.busWidthBytes >= wordBytes,
                   "input bus must be at least one word wide");
    PIPESIM_ASSERT(isPowerOf2(config.busWidthBytes),
                   "bus width must be a power of two");
    if (config.dcacheBytes > 0)
        _dcache.emplace(config.dcacheBytes, config.dcacheLineBytes,
                        wordBytes);
}

void
MemorySystem::attach(MemClient *&slot, MemClient *client)
{
    if (slot)
        slot->_posted = nullptr;
    slot = client;
    if (client)
        client->_posted = &_posted;
    _posted = true;
}

void
MemorySystem::tick(Cycle now)
{
    // Cleared first: a slot the clients rewrite from this tick's
    // callbacks is a change the next tick must see.
    _posted = false;
    _demandFetchContended = false;
    bool active = _extMem.tick(now);
    active |= deliverLocalResponse(now);
    active |= deliverInputBus(now);
    active |= serviceDcache(now);
    active |= acceptOutputBus(now);
    _idle = !active;
    if (_idle)
        _wake = idleWake(now);
}

Cycle
MemorySystem::idleWake(Cycle now) const
{
    // The clock is compared only with the external memory's head, the
    // FPU results and the data-cache hit at the head of the local
    // responses.  A response that is ready but out of LDQ order stays
    // blocked until another one moves.
    Cycle next = std::min(_extMem.nextEvent(now), _fpu.nextEvent(now));
    if (!_localResponses.empty() && _localResponses.front().readyAt > now)
        next = std::min(next, _localResponses.front().readyAt);
    return next;
}

/**
 * Data-cache port: service the data client's head if it is a hit
 * load (at most one per cycle; no bus or external memory involved).
 */
bool
MemorySystem::serviceDcache(Cycle now)
{
    if (!_dcache || !_dataClient)
        return false;
    const MemRequest *req = _dataClient->request();
    if (!req || req->isStore || FpuDevice::contains(req->addr))
        return false;
    if (!_dcache->bytesValid(req->addr, req->bytes)) {
        if (_lastDcacheMissSeq == req->dataSeq)
            return false; // falls through to the off-chip path
        _dcache->recordLookup(false);
        ++_dcacheMisses;
        _lastDcacheMissSeq = req->dataSeq;
        return true;
    }
    _dcache->recordLookup(true);
    ++_dcacheHits;
    // Copy before accepted(): acceptance resets the client's storage.
    _localResponses.push_back(LocalResponse{*req, 0, now + 1});
    _dataClient->accepted();
    return true;
}

/** Deliver at most one ready data-cache hit, in LDQ order. */
bool
MemorySystem::deliverLocalResponse(Cycle now)
{
    if (_localResponses.empty())
        return false;
    LocalResponse &resp = _localResponses.front();
    if (resp.readyAt > now ||
        resp.req.dataSeq != _nextDataDeliverSeq)
        return false;
    finish(resp.req, resp.value);
    _localResponses.pop_front();
    return true;
}

MemClient &
MemorySystem::owner(const MemRequest &req) const
{
    MemClient *client =
        req.cls == ReqClass::Data ? _dataClient : _instrClient;
    PIPESIM_ASSERT(client, "response for unregistered ",
                   reqClassName(req.cls), " client");
    return *client;
}

void
MemorySystem::finish(const MemRequest &req, Word value)
{
    MemClient &client = owner(req);
    if (req.cls == ReqClass::Data) {
        client.loadData(req, value);
        ++_nextDataDeliverSeq;
    }
    client.complete(req);
}

void
MemorySystem::noteContention(Cycle now, ReqClass cls)
{
    if (cls == ReqClass::IFetchDemand)
        _demandFetchContended = true;
    if (_probes && _probes->busContention.active())
        _probes->busContention.notify(obs::BusContentionEvent{now, cls});
}

bool
MemorySystem::deliverable(const MemRequest &req) const
{
    if (req.isStore)
        return false;
    if (req.cls == ReqClass::Data)
        return req.dataSeq == _nextDataDeliverSeq;
    return true;
}

void
MemorySystem::selectTransfer(Cycle now)
{
    // Candidate 1: head of the external memory's response queue.
    const MemRequest *ext = _extMem.peekReady(now);
    const bool ext_ok = ext && deliverable(*ext);

    // Candidate 2: oldest ready FPU result read.
    const auto fpu_ready = _fpu.peekReady(now);
    const bool fpu_ok = fpu_ready && deliverable(*fpu_ready->req);

    if (!ext_ok && !fpu_ok)
        return;

    // Priority: demand responses beat FPU results, FPU results beat
    // prefetch responses (paper section 5).
    bool pick_ext;
    if (ext_ok && fpu_ok)
        pick_ext = ext->cls != ReqClass::IPrefetch;
    else
        pick_ext = ext_ok;

    Transfer t;
    if (pick_ext) {
        t.req = _extMem.popReady(now);
        t.fromExtMem = true;
        t.value = t.req.loadData;
        _extMem.setTransferring(true);
    } else {
        t.req = *fpu_ready->req;
        t.fromExtMem = false;
        t.value = fpu_ready->value;
        _fpu.popReady(now);
    }
    t.nextAddr = t.req.addr;
    t.bytesLeft = t.req.bytes;
    PIPESIM_ASSERT(t.bytesLeft > 0, "zero-length response");
    _transfer = std::move(t);
}

void
MemorySystem::deliverBeat(Cycle now)
{
    (void)now;
    Transfer &t = *_transfer;
    const unsigned beat = std::min(_config.busWidthBytes, t.bytesLeft);
    ++_beatsDelivered;
    ++_inputBusBusyCycles;
    owner(t.req).beat(t.req, t.nextAddr, beat);
    t.nextAddr += beat;
    t.bytesLeft -= beat;
    if (t.bytesLeft == 0) {
        // Retire the transfer before handing the response back.
        const MemRequest req = t.req;
        const Word value = t.value;
        if (t.fromExtMem)
            _extMem.setTransferring(false);
        _transfer.reset();
        finish(req, value);
    }
}

bool
MemorySystem::deliverInputBus(Cycle now)
{
    if (!_transfer)
        selectTransfer(now);
    if (!_transfer)
        return false;
    deliverBeat(now);
    return true;
}

bool
MemorySystem::tryAccept(MemClient &client, Cycle now)
{
    const MemRequest *posted = client.request();

    const bool to_fpu = FpuDevice::contains(posted->addr);
    if (!to_fpu && !_extMem.canAccept()) {
        noteContention(now, posted->cls);
        return false;
    }

    // The one copy of the request: accepted() rewrites the slot.
    MemRequest req = *posted;
    client.accepted();
    ++_outputBusBusyCycles;
    if (_probes && _probes->busGrant.active())
        _probes->busGrant.notify(
            obs::BusGrantEvent{now, req.cls, req.addr, req.isStore});
    switch (req.cls) {
      case ReqClass::Data: ++_dataRequests; break;
      case ReqClass::IFetchDemand: ++_demandRequests; break;
      case ReqClass::IPrefetch: ++_prefetchRequests; break;
    }

    if (to_fpu) {
        if (req.isStore)
            _fpu.store(req.addr, req.storeData, now);
        else
            _fpu.queueRead(req, now);
        return true;
    }

    // Data requests are accepted in program order, a store applying
    // and a load reading here: the functional executor's sequential
    // values are exactly a timed run's (cpu/executor.hh).  The values
    // themselves live there; loads deliver 0.
    if (req.isStore) {
        // Write-through: update the data cache only if present.
        if (_dcache && _dcache->linePresent(req.addr))
            _dcache->fill(Addr(alignDown(req.addr, wordBytes)),
                          wordBytes);
    } else if (req.cls == ReqClass::Data) {
        // Miss fill (word granular, allocating the line frame).
        if (_dcache) {
            if (!_dcache->linePresent(req.addr))
                _dcache->allocate(req.addr);
            _dcache->fill(Addr(alignDown(req.addr, wordBytes)),
                          wordBytes);
        }
    }
    _extMem.accept(req, now);
    return true;
}

bool
MemorySystem::acceptOutputBus(Cycle now)
{
    // Presentation order: data, then the fetch unit's request, unless
    // that is a demand fetch and instructions have priority.
    std::array<MemClient *, 2> order{_dataClient, _instrClient};
    const MemRequest *instr = _instrClient ? _instrClient->request() : nullptr;
    if (_config.instructionPriority && instr &&
        instr->cls == ReqClass::IFetchDemand)
        std::swap(order[0], order[1]);

    for (std::size_t i = 0; i < order.size(); ++i) {
        if (!order[i] || !order[i]->request() || !tryAccept(*order[i], now))
            continue;
        // A later client with a request posted this cycle lost
        // arbitration.  Only a losing demand fetch matters to the
        // cycle accounting; the others are reported only when
        // someone listens to the probe.
        const bool report = _probes && _probes->busContention.active();
        for (std::size_t j = i + 1; j < order.size(); ++j) {
            const MemRequest *loser = order[j] ? order[j]->request() : nullptr;
            if (loser && (report || loser->cls == ReqClass::IFetchDemand))
                noteContention(now, loser->cls);
        }
        return true;
    }
    return false;
}

void
MemorySystem::dumpState(std::ostream &os) const
{
    const auto flags = os.flags();
    if (_transfer) {
        const Transfer &t = *_transfer;
        os << "input bus: " << (t.req.isStore ? "store"
                                              : reqClassName(t.req.cls))
           << " transfer, next addr 0x" << std::hex << t.nextAddr
           << std::dec << ", " << t.bytesLeft << " B left\n";
    } else {
        os << "input bus: idle\n";
    }
    os << "local (dcache hit) responses queued: "
       << _localResponses.size() << "\n";
    os << "fpu reads pending: " << _fpu.pendingReads() << "\n";
    os << "next data delivery seq: " << _nextDataDeliverSeq << "\n";
    os.flags(flags);
    _extMem.dumpState(os);
}

bool
MemorySystem::quiescent() const
{
    return !_transfer && _extMem.idle() && _fpu.pendingReads() == 0 &&
           _localResponses.empty();
}

void
MemorySystem::saveState(StateWriter &w) const
{
    // Data sequence numbers are saved relative to the next one the
    // input bus may deliver, which is itself a count.
    const std::uint64_t seqBase = _nextDataDeliverSeq;
    w.b(_transfer.has_value());
    if (_transfer) {
        const Transfer &t = *_transfer;
        saveMemRequest(w, t.req, seqBase);
        if (t.req.cls == ReqClass::Data)
            w.dataAddr(t.nextAddr);
        else
            w.u32(t.nextAddr);
        w.u32(t.bytesLeft);
        w.b(t.fromExtMem);
        w.dataWord(t.value);
    }
    w.b(_dcache.has_value());
    if (_dcache)
        _dcache->saveState(w);
    w.u32(std::uint32_t(_localResponses.size()));
    for (const LocalResponse &resp : _localResponses) {
        saveMemRequest(w, resp.req, seqBase);
        w.dataWord(resp.value);
        // Compared only as readyAt > now (deliverLocalResponse) and
        // readyAt > last (nextEvent).
        w.stamp(resp.readyAt);
    }
    // Compared only for equality with the data client's head, which
    // the input bus has not delivered yet.
    w.seq(_lastDcacheMissSeq, seqBase, seqBase);
    w.count(_nextDataDeliverSeq);
    for (const Counter *c :
         {&_inputBusBusyCycles, &_outputBusBusyCycles, &_dataRequests,
          &_dcacheHits, &_dcacheMisses, &_demandRequests,
          &_prefetchRequests, &_beatsDelivered})
        w.count(c->value());
    _extMem.saveState(w, seqBase);
    _fpu.saveState(w, seqBase);
}

void
MemorySystem::restoreState(StateReader &r)
{
    // The restored state was not ticked here: the next tick must run.
    _posted = true;
    _transfer.reset();
    if (r.b()) {
        Transfer t;
        t.req = restoreMemRequest(r);
        t.nextAddr = r.u32();
        t.bytesLeft = r.u32();
        t.fromExtMem = r.b();
        t.value = r.u32();
        _transfer = std::move(t);
    }
    if (r.b() != _dcache.has_value())
        r.fail("data cache presence mismatch");
    if (_dcache)
        _dcache->restoreState(r);
    _localResponses.clear();
    const std::uint32_t locals = r.u32();
    for (std::uint32_t i = 0; i < locals; ++i) {
        LocalResponse resp;
        resp.req = restoreMemRequest(r);
        resp.value = r.u32();
        resp.readyAt = r.u64();
        _localResponses.push_back(std::move(resp));
    }
    _lastDcacheMissSeq = r.u64();
    _nextDataDeliverSeq = r.u64();
    _inputBusBusyCycles.set(r.u64());
    _outputBusBusyCycles.set(r.u64());
    _dataRequests.set(r.u64());
    _dcacheHits.set(r.u64());
    _dcacheMisses.set(r.u64());
    _demandRequests.set(r.u64());
    _prefetchRequests.set(r.u64());
    _beatsDelivered.set(r.u64());
    _extMem.restoreState(r);
    _fpu.restoreState(r);
}

void
MemorySystem::regStats(StatGroup &stats, const std::string &prefix)
{
    stats.regCounter(prefix + ".input_bus_busy_cycles",
                     &_inputBusBusyCycles,
                     "cycles the input bus carried a beat");
    stats.regCounter(prefix + ".output_bus_busy_cycles",
                     &_outputBusBusyCycles,
                     "cycles the output bus carried a request");
    stats.regCounter(prefix + ".data_requests", &_dataRequests,
                     "data loads/stores accepted");
    stats.regCounter(prefix + ".demand_ifetch_requests", &_demandRequests,
                     "demand instruction fetches accepted");
    stats.regCounter(prefix + ".prefetch_requests", &_prefetchRequests,
                     "instruction prefetches accepted");
    stats.regCounter(prefix + ".beats_delivered", &_beatsDelivered,
                     "input bus beats delivered");
    stats.regCounter(prefix + ".dcache_hits", &_dcacheHits,
                     "on-chip data cache hits (extension)");
    stats.regCounter(prefix + ".dcache_misses", &_dcacheMisses,
                     "on-chip data cache misses (extension)");
    if (_dcache)
        _dcache->regStats(stats, prefix + ".dcache");
    _extMem.regStats(stats, prefix + ".extmem");
    _fpu.regStats(stats, prefix + ".fpu");
}

} // namespace pipesim
