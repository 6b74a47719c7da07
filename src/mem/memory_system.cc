#include "mem/memory_system.hh"

#include <array>
#include <ostream>

#include "common/bitutil.hh"
#include "common/log.hh"
#include "fault/fault.hh"

namespace pipesim
{

MemorySystem::MemorySystem(const MemSystemConfig &config,
                           DataMemory &data_memory)
    : _config(config), _dataMem(data_memory),
      _extMem(config.accessTime, config.pipelined), _fpu(config.fpuLatency)
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
MemorySystem::tick(Cycle now)
{
    _demandFetchContended = false;
    _extMem.tick(now);
    deliverLocalResponse(now);
    deliverInputBus(now);
    serviceDcache(now);
    acceptOutputBus(now);
}

/**
 * Data-cache port: service the data client's head if it is a hit
 * load (at most one per cycle; no bus or external memory involved).
 */
void
MemorySystem::serviceDcache(Cycle now)
{
    if (!_dcache || !_dataClient)
        return;
    const MemRequest *req = _dataClient->peek();
    if (!req || req->isStore || FpuDevice::contains(req->addr))
        return;
    if (!_dcache->bytesValid(req->addr, req->bytes)) {
        if (_lastDcacheMissSeq != req->dataSeq) {
            _dcache->recordLookup(false);
            ++_dcacheMisses;
            _lastDcacheMissSeq = req->dataSeq;
        }
        return; // falls through to the off-chip path this cycle
    }
    _dcache->recordLookup(true);
    ++_dcacheHits;
    // Copy before accepted(): acceptance resets the client's storage.
    _localResponses.push_back(
        LocalResponse{*req, _dataMem.readWord(req->addr), now + 1});
    _dataClient->accepted();
}

/** Deliver at most one ready data-cache hit, in LDQ order. */
void
MemorySystem::deliverLocalResponse(Cycle now)
{
    if (_localResponses.empty())
        return;
    LocalResponse &resp = _localResponses.front();
    if (resp.readyAt > now ||
        resp.req.dataSeq != _nextDataDeliverSeq)
        return;
    finish(resp.req, resp.value);
    _localResponses.pop_front();
}

MemClient &
MemorySystem::owner(const MemRequest &req) const
{
    MemClient *client = nullptr;
    switch (req.cls) {
      case ReqClass::Data: client = _dataClient; break;
      case ReqClass::IFetchDemand: client = _demandClient; break;
      case ReqClass::IPrefetch: client = _prefetchClient; break;
    }
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
        // Fill parity injection: only instruction fills are exposed,
        // and the decision is made here, before the first beat, so
        // corrupt data never propagates.
        if (_faults && t.req.cls != ReqClass::Data &&
            _faults->corruptFill())
            t.corrupted = true;
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
    // A corrupted transfer occupies the bus for its full duration but
    // delivers nothing: the parity error is detected per beat.
    if (!t.corrupted)
        owner(t.req).beat(t.req, t.nextAddr, beat);
    t.nextAddr += beat;
    t.bytesLeft -= beat;
    if (t.bytesLeft == 0) {
        // Retire the transfer before delivering the end of transfer:
        // the owner may throw (parity retry exhaustion raises
        // SimAbort), and the bus must look consistent in the
        // post-mortem snapshot.
        const MemRequest req = t.req;
        const bool corrupted = t.corrupted;
        const Word value = t.value;
        if (t.fromExtMem)
            _extMem.setTransferring(false);
        _transfer.reset();
        if (corrupted)
            owner(req).parityError(req);
        else
            finish(req, value);
    }
}

void
MemorySystem::deliverInputBus(Cycle now)
{
    if (!_transfer)
        selectTransfer(now);
    if (_transfer)
        deliverBeat(now);
}

bool
MemorySystem::tryAccept(MemClient *client, Cycle now)
{
    if (!client)
        return false;
    const MemRequest *peeked = client->peek();
    if (!peeked)
        return false;

    // Injected arbitration fault: withhold the grant this cycle.  The
    // client retries next cycle exactly as it would after losing real
    // arbitration, so this only stretches timing (rate 1.0 starves
    // the bus outright -- a clean way to force a deadlock).
    if (_faults && _faults->delayGrant()) {
        noteContention(now, peeked->cls);
        return false;
    }

    const bool to_fpu = FpuDevice::contains(peeked->addr);
    if (!to_fpu && !_extMem.canAccept()) {
        noteContention(now, peeked->cls);
        return false;
    }

    // The one copy of the request: accepted() resets the storage the
    // peeked pointer refers to.
    MemRequest req = *peeked;
    client->accepted();
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

    if (req.isStore) {
        // Applied now; later loads are accepted later in program
        // order and capture their values at acceptance, so ordering
        // is preserved.
        _dataMem.writeWord(req.addr, req.storeData);
        // Write-through: update the data cache only if present.
        if (_dcache && _dcache->linePresent(req.addr))
            _dcache->fill(Addr(alignDown(req.addr, wordBytes)),
                          wordBytes);
    } else if (req.cls == ReqClass::Data) {
        req.loadData = _dataMem.readWord(req.addr);
        // Miss fill (word granular, allocating the line frame).
        if (_dcache) {
            if (!_dcache->linePresent(req.addr))
                _dcache->allocate(req.addr);
            _dcache->fill(Addr(alignDown(req.addr, wordBytes)),
                          wordBytes);
        }
    }
    // Injected response jitter (0 when no injector or the roll
    // misses); the external memory adds it to the ready time.
    if (_faults)
        req.extraLatency = _faults->responseJitter();
    _extMem.accept(req, now);
    return true;
}

void
MemorySystem::acceptOutputBus(Cycle now)
{
    std::array<MemClient *, 3> order;
    if (_config.instructionPriority)
        order = {_demandClient, _dataClient, _prefetchClient};
    else
        order = {_dataClient, _demandClient, _prefetchClient};

    for (std::size_t i = 0; i < order.size(); ++i) {
        if (!tryAccept(order[i], now))
            continue;
        // Lower-priority clients with a request pending this cycle
        // lost arbitration.  Only a losing demand fetch matters to the
        // cycle accounting, so the other losers are peeked only when
        // someone listens to the probe.
        const bool report = _probes && _probes->busContention.active();
        for (std::size_t j = i + 1; j < order.size(); ++j) {
            if (!order[j] || (!report && order[j] != _demandClient))
                continue;
            if (const MemRequest *loser = order[j]->peek())
                noteContention(now, loser->cls);
        }
        return;
    }
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
           << std::dec << ", " << t.bytesLeft << " B left"
           << (t.corrupted ? " [parity corrupted]" : "") << "\n";
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
    w.b(_transfer.has_value());
    if (_transfer) {
        const Transfer &t = *_transfer;
        saveMemRequest(w, t.req);
        w.u32(t.nextAddr);
        w.u32(t.bytesLeft);
        w.b(t.fromExtMem);
        w.u32(t.value);
        w.b(t.corrupted);
    }
    w.b(_dcache.has_value());
    if (_dcache)
        _dcache->saveState(w);
    w.u32(std::uint32_t(_localResponses.size()));
    for (const LocalResponse &resp : _localResponses) {
        saveMemRequest(w, resp.req);
        w.u32(resp.value);
        w.u64(resp.readyAt);
    }
    w.u64(_lastDcacheMissSeq);
    w.u64(_nextDataDeliverSeq);
    w.u64(_inputBusBusyCycles.value());
    w.u64(_outputBusBusyCycles.value());
    w.u64(_dataRequests.value());
    w.u64(_dcacheHits.value());
    w.u64(_dcacheMisses.value());
    w.u64(_demandRequests.value());
    w.u64(_prefetchRequests.value());
    w.u64(_beatsDelivered.value());
    _extMem.saveState(w);
    _fpu.saveState(w);
}

void
MemorySystem::restoreState(StateReader &r)
{
    _transfer.reset();
    if (r.b()) {
        Transfer t;
        t.req = restoreMemRequest(r);
        t.nextAddr = r.u32();
        t.bytesLeft = r.u32();
        t.fromExtMem = r.b();
        t.value = r.u32();
        t.corrupted = r.b();
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
