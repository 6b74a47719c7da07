#include "cpu/pipeline.hh"

#include <algorithm>
#include <ostream>

#include "common/abort.hh"
#include "common/log.hh"
#include "cpu/executor.hh"
#include "isa/opcodes.hh"

namespace pipesim
{

using isa::Cond;
using isa::Opcode;

Pipeline::Pipeline(const PipelineConfig &config, FetchUnit &fetch,
                   MemorySystem &mem, RecordStream &records,
                   std::size_t firstRecord)
    : _cfg(config), _fetch(fetch), _mem(mem), _records(records),
      _dataPort(*this),
      _queues(config.laqEntries, config.ldqEntries, config.saqEntries,
              config.sdqEntries),
      _cursor(firstRecord)
{
    _mem.setDataClient(&_dataPort);
}

Pipeline::~Pipeline()
{
    _mem.setDataClient(nullptr);
}

bool
Pipeline::drained() const
{
    return _queues.laq().empty() && _queues.saq().empty() &&
           _queues.sdq().empty() && _loadsIssued == _loadsDelivered;
}

bool
Pipeline::loadIsNext() const
{
    const auto &laq = _queues.laq();
    const auto &saq = _queues.saq();
    if (laq.empty() || saq.empty())
        return !laq.empty();
    return laq.front().seq < saq.front().seq;
}

void
Pipeline::DataPort::refresh()
{
    const ArchQueues &q = _owner._queues;
    MemRequest req;
    req.bytes = wordBytes;
    if (_owner.loadIsNext()) {
        req.addr = q.laq().front().addr;
        req.dataSeq = _owner._loadsAccepted;
    } else if (!q.saq().empty() && !q.sdq().empty()) {
        // A store needs its data; program order blocks behind it
        // until the SDQ entry is produced.
        req.addr = q.saq().front().addr;
        req.isStore = true;
        req.storeData = q.sdq().front();
    } else {
        withdraw();
        return;
    }
    post(req);
}

void
Pipeline::DataPort::accepted()
{
    ArchQueues &q = _owner._queues;
    PIPESIM_ASSERT(!q.laq().empty() || !q.saq().empty(),
                   "acceptance with empty queues");
    if (_owner.loadIsNext()) {
        q.laq().pop();
        ++_owner._loadsAccepted;
    } else {
        q.saq().pop();
        q.sdq().pop();
    }
    refresh();
}

void
Pipeline::DataPort::loadData(const MemRequest &, Word value)
{
    PIPESIM_ASSERT(!_owner._queues.ldq().full(),
                   "LDQ overflow: reservation logic broken");
    _owner._queues.ldq().push(value);
    ++_owner._loadsDelivered;
}

std::optional<std::size_t>
Pipeline::resyncDataAddrs(bool apply)
{
    // Newest first: the memory ops back to the oldest queued one (by
    // sequence number), the loads back to the oldest undelivered one
    // (by data sequence), and the memory stores the external memory
    // holds, which come right before the queued stores.
    std::uint64_t oldest = _memOpSeq;
    for (const auto *q : {&_queues.laq(), &_queues.saq()})
        if (!q->empty())
            oldest = std::min(oldest, q->front().seq);
    const std::size_t extStores = _mem.dataStoresInFlight();
    std::size_t queuedStores = _queues.saq().size();
    std::vector<Addr> ops, loads, stores;
    std::size_t back = 0;
    while (ops.size() < _memOpSeq - oldest ||
           loads.size() < _loadsIssued - _loadsDelivered ||
           stores.size() < extStores) {
        const replay::TraceRecord *r =
            back < std::min(_cursor, RecordStream::lookBack / 2)
                ? _records.at(_cursor - ++back)
                : nullptr;
        if (!r && apply)
            panic("the records of live loads and stores are released");
        if (!r)
            return std::nullopt;
        if (!r->hasMemAddr)
            continue;
        ops.push_back(r->memAddr);
        if (!r->memIsStore)
            loads.push_back(r->memAddr);
        else if (queuedStores > 0)
            --queuedStores;
        else if (!FpuDevice::contains(r->memAddr))
            stores.push_back(r->memAddr);
    }
    if (!apply)
        return back;
    for (FixedQueue<PendingAccess> *q : {&_queues.laq(), &_queues.saq()}) {
        for (std::size_t n = q->size(); n > 0; --n) {
            PendingAccess e = q->pop();
            e.addr = ops[_memOpSeq - 1 - e.seq];
            q->push(e);
        }
    }
    _mem.retargetData([&](const MemRequest &req, std::size_t storesAfter) {
        return req.isStore ? stores[storesAfter]
                           : loads[_loadsIssued - 1 - req.dataSeq];
    });
    _dataPort.refresh();
    return back;
}

std::vector<Addr>
Pipeline::recentRetiredPcs() const
{
    const std::uint64_t count = _retired.value();
    const std::uint64_t n =
        std::min<std::uint64_t>(count, _retiredPcs.size());
    std::vector<Addr> pcs;
    for (std::uint64_t i = count - n; i < count; ++i)
        pcs.push_back(_retiredPcs[i % _retiredPcs.size()]);
    return pcs;
}

Pipeline::StallReason
Pipeline::issueHazard(const isa::Instruction &inst, Cycle now) const
{
    // The sources of Instruction::srcRegs(), without building the
    // list: each r7 pops one LDQ entry, any other must be free.
    const auto &info = isa::opcodeInfo(inst.op);
    unsigned ldq_pops = 0;
    const auto busy = [&](unsigned r) {
        if (r == isa::queueReg) {
            ++ldq_pops;
            return false;
        }
        return _regs.busyUntil(r) > now;
    };
    if ((info.hasRs1 && busy(inst.rs1)) || (info.hasRs2 && busy(inst.rs2)) ||
        (inst.op == Opcode::Pbr && inst.cond != Cond::Always &&
         busy(inst.rs1)))
        return StallReason::RegBusy;
    if (ldq_pops > _queues.ldq().size())
        return StallReason::LdqEmpty;
    if (info.hasRd && inst.rd == isa::queueReg && _queues.sdq().full())
        return StallReason::SdqFull;
    if (info.isLoad) {
        if (_queues.laq().full())
            return StallReason::LaqFull;
        // Reserve an LDQ slot: entries present, minus the ones this
        // instruction pops, plus loads still in flight, plus this one.
        const std::size_t in_flight = _loadsIssued - _loadsDelivered;
        if (_queues.ldq().size() - ldq_pops + in_flight + 1 >
            _queues.ldq().capacity())
            return StallReason::LdqReserved;
    }
    if (info.isStore && _queues.saq().full())
        return StallReason::SaqFull;
    return StallReason::None;
}

void
Pipeline::checkLdqDeadlock(StallReason hazard, Cycle now) const
{
    if ((hazard != StallReason::LdqEmpty &&
         hazard != StallReason::LdqReserved) ||
        _loadsIssued != _loadsDelivered)
        return;
    // Only an issued load can add an LDQ entry or free a reservation,
    // and issue is stuck behind this instruction.
    simAbort("issue deadlocked at cycle ", now, ": ",
             isa::mnemonic(_issueLatch->inst.op), " @ 0x", std::hex,
             _issueLatch->pc, std::dec, " waits on the LDQ (",
             _queues.ldq().size(), "/", _queues.ldq().capacity(),
             " entries) with no load in flight; the program keeps more "
             "loads ahead of their consumers than cpu.ldqEntries = ",
             _cfg.ldqEntries,
             " holds (generated code needs codegen's ldqWindow <= "
             "ldqEntries - 1)");
}

void
Pipeline::execute(const isa::FetchedInst &fi, Cycle now)
{
    const isa::Instruction &inst = fi.inst;
    const auto &info = isa::opcodeInfo(inst.op);

    // Each r7 source pops the LDQ (the hazard check already proved it
    // holds enough entries).
    for (unsigned pops = inst.ldqPops(); pops > 0; --pops)
        _queues.ldq().pop();

    const replay::TraceRecord &o = recorded(fi);
    switch (inst.op) {
      case Opcode::Ld:
      case Opcode::LdX:
        _queues.laq().push(PendingAccess{_memOpSeq++, o.memAddr});
        _dataPort.refresh();
        ++_loadsIssued;
        ++_loads;
        break;
      case Opcode::St:
      case Opcode::StX:
        _queues.saq().push(PendingAccess{_memOpSeq++, o.memAddr});
        _dataPort.refresh();
        ++_stores;
        break;
      case Opcode::Pbr:
        if (o.branchTaken)
            ++_pbrTaken;
        else
            ++_pbrNotTaken;
        _pendingResolve = Resolve{o.branchTaken, o.branchTarget};
        break;
      case Opcode::Rsw:
        // Bank switches redirect which busy-until slots later reads
        // check.
        _regs.switchBanks();
        break;
      case Opcode::Halt:
        _halted = true;
        _haltCycle = now;
        break;
      default:
        break;
    }

    if (info.hasRd) {
        if (inst.rd == isa::queueReg) {
            _queues.sdq().push(0);
            _dataPort.refresh();
        } else {
            _regs.setBusyUntil(inst.rd, now + _cfg.aluLatency);
        }
    }

    ++_cursor;
    _retiredPcs[ringHead()] = fi.pc;
    ++_retired;
    if (_probes && _probes->retire.active())
        _probes->retire.notify(obs::RetireEvent{
            now, fi, info.isLoad || info.isStore, info.isStore,
            o.memAddr, inst.isPbr(), o.branchTaken, o.branchTarget});
}

bool
Pipeline::traceExhausted() const
{
    const replay::Trace *trace = _records.trace();
    return trace && _cursor >= trace->records.size();
}

const replay::TraceRecord &
Pipeline::recorded(const isa::FetchedInst &fi)
{
    // Issued, so consumed: an executor writes its stores straight through.
    _records.consume(_cursor + 1);
    const replay::TraceRecord *r = _records.at(_cursor);
    const isa::Instruction &inst = fi.inst;
    const bool diverged =
        r && (r->pc != fi.pc ||
              r->hasMemAddr != (inst.isLoad() || inst.isStore()) ||
              r->memIsStore != inst.isStore() || r->isPbr != inst.isPbr());
    const replay::Trace *trace = _records.trace();
    // The executor never ends a stream the fetch side can still
    // extend, nor leaves its path.
    if (!trace && (!r || diverged))
        panic("the executor's record #", _cursor, " at pc 0x", std::hex,
              fi.pc, std::dec, " is ",
              r ? std::string("for another pc")
                : "missing: " + _records.endReason());
    const auto provenance = [trace] {
        return trace->meta.provenance.empty() ? "none"
                                              : trace->meta.provenance;
    };
    if (!r)
        fatal("trace replay: the fetch stream issued instruction #",
              _cursor, " at pc 0x", std::hex, fi.pc, std::dec,
              " but the trace holds only ", trace->records.size(),
              " records — the trace does not match this program "
              "(capture provenance: ",
              provenance(), ")");
    if (diverged)
        fatal("trace replay diverged at record #", _cursor,
              ": trace says pc 0x", std::hex, r->pc,
              " but the machine issued pc 0x", fi.pc, std::dec,
              " — the trace was captured from a different program "
              "(capture provenance: ",
              provenance(), ")");
    return *r;
}

obs::CycleClass
Pipeline::countStall(StallReason hazard, Cycle n)
{
    switch (hazard) {
      case StallReason::RegBusy:
        _issueStallRegBusy += n;
        return obs::CycleClass::RegBusy;
      case StallReason::LdqEmpty:
        _issueStallLdqEmpty += n;
        return obs::CycleClass::LoadDataWait;
      case StallReason::SdqFull:
        _issueStallSdqFull += n;
        return obs::CycleClass::QueueFull;
      case StallReason::LaqFull:
        _issueStallLaqFull += n;
        return obs::CycleClass::QueueFull;
      case StallReason::LdqReserved:
        _issueStallLdqReserved += n;
        return obs::CycleClass::QueueFull;
      case StallReason::SaqFull:
        _issueStallSaqFull += n;
        return obs::CycleClass::QueueFull;
      case StallReason::None:
        break;
    }
    panic("no stall to count");
}

void
Pipeline::tick(Cycle now)
{
    IdleTick t;
    t.idle = !_pendingResolve;

    // 1. PBR direction returns from ALU1 (one cycle after issue).
    if (_pendingResolve) {
        _fetch.branchResolved(_pendingResolve->taken,
                              _pendingResolve->target);
        _pendingResolve.reset();
    }

    _queues.sampleOccupancy();
    if (_probes && _probes->queueSample.active()) {
        _probes->queueSample.notify(obs::QueueSampleEvent{
            now, std::uint8_t(_queues.laq().size()),
            std::uint8_t(_queues.ldq().size()),
            std::uint8_t(_queues.saq().size()),
            std::uint8_t(_queues.sdq().size())});
    }

    // Cycle accounting: every tick is attributed to exactly one
    // class.  The tick on which HALT issues starts the drain phase,
    // so the non-Drain classes sum exactly to haltCycle().
    obs::CycleClass cls = obs::CycleClass::FetchStarve;

    // 2. Issue at most one instruction.
    if (_halted) {
        cls = obs::CycleClass::Drain;
    } else if (_issueLatch) {
        t.hazard = issueHazard(_issueLatch->inst, now);
        if (t.hazard == StallReason::None) {
            execute(*_issueLatch, now);
            cls = _halted ? obs::CycleClass::Drain
                          : obs::CycleClass::Issue;
            _issueLatch.reset();
            t.idle = false;
        } else {
            checkLdqDeadlock(t.hazard, now);
            cls = countStall(t.hazard, 1);
        }
    }

    // 3. Advance the decode latch into the issue latch.
    if (!_issueLatch && _idLatch) {
        _issueLatch = _idLatch;
        _idLatch.reset();
        t.idle = false;
    }

    // 4. Fetch into the decode latch.
    if (!_halted && !_idLatch) {
        _idLatch = _fetch.tryTake();
        if (_idLatch) {
            t.idle = false;
        } else {
            ++_fetchStarveCycles;
            t.starved = true;
        }
    }

    if (_cpiStack)
        _cpiStack->account(cls, _mem.demandFetchContended());
    if (_probes && _probes->cycleClass.active())
        _probes->cycleClass.notify(obs::CycleClassEvent{now, cls});
    t.cls = cls;
    _lastTick = t;
}

Cycle
Pipeline::sourcesFree(Cycle last) const
{
    Cycle freed = last + 1;
    for (std::uint8_t r : _issueLatch->inst.srcRegs())
        if (r != isa::queueReg)
            freed = std::max(freed, _regs.busyUntil(r));
    return freed;
}

void
Pipeline::repeatIdleTick(Cycle n)
{
    PIPESIM_ASSERT(_lastTick.idle, "repeating a tick that was not idle");
    if (_lastTick.hazard != StallReason::None)
        countStall(_lastTick.hazard, n);
    if (_lastTick.starved)
        _fetchStarveCycles += n;
    _queues.repeatOccupancy(n);
    if (_cpiStack)
        _cpiStack->account(_lastTick.cls, _mem.demandFetchContended(), n);
}

void
Pipeline::dumpState(std::ostream &os) const
{
    const auto flags = os.flags();
    os << "pipeline: " << (_halted ? "halted" : "running")
       << ", retired " << _retired.value() << " instruction(s)";
    if (_halted)
        os << " (HALT issued at cycle " << _haltCycle << ")";
    if (const replay::Trace *trace = _records.trace())
        os << ", next trace record #" << _cursor << " of "
           << trace->records.size();
    os << "\n";
    const auto latch = [&os](const char *name,
                             const std::optional<isa::FetchedInst> &l) {
        os << "  " << name << ": ";
        if (l)
            os << isa::mnemonic(l->inst.op) << " @ 0x" << std::hex
               << l->pc << std::dec;
        else
            os << "empty";
        os << "\n";
    };
    latch("decode latch", _idLatch);
    latch("issue latch", _issueLatch);
    if (_pendingResolve)
        os << "  pending branch resolution: "
           << (_pendingResolve->taken ? "taken" : "not taken") << "\n";
    os << "  queues: laq " << _queues.laq().size() << "/"
       << _queues.laq().capacity() << ", ldq " << _queues.ldq().size()
       << "/" << _queues.ldq().capacity() << ", saq "
       << _queues.saq().size() << "/" << _queues.saq().capacity()
       << ", sdq " << _queues.sdq().size() << "/"
       << _queues.sdq().capacity() << "\n";
    os << "  loads issued/accepted/delivered: " << _loadsIssued << "/"
       << _loadsAccepted << "/" << _loadsDelivered << "\n";
    os.flags(flags);
}

namespace
{

/**
 * Latches serialize the full decoded instruction, not just the pc:
 * the fetch unit can run ahead of a taken branch or past the code
 * image and latch an instruction the pipeline will squash without
 * executing, so re-decoding from the Program on restore would reject
 * a state the live machine legitimately held.
 */
void
saveLatch(StateWriter &w, const std::optional<isa::FetchedInst> &latch)
{
    w.b(latch.has_value());
    if (!latch)
        return;
    w.u32(latch->pc);
    const isa::Instruction &i = latch->inst;
    w.u8(std::uint8_t(i.op));
    w.u8(i.rd);
    w.u8(i.rs1);
    w.u8(i.rs2);
    w.u8(i.br);
    w.u8(i.count);
    w.u8(std::uint8_t(i.cond));
    w.u32(std::uint32_t(i.imm));
    w.u8(i.parcels);
}

void
restoreLatch(StateReader &r, std::optional<isa::FetchedInst> &latch)
{
    latch.reset();
    if (!r.b())
        return;
    isa::FetchedInst fi;
    fi.pc = r.u32();
    const std::uint8_t op = r.u8();
    if (op >= std::uint8_t(isa::Opcode::NumOpcodes))
        r.fail("latched opcode ", unsigned(op), " out of range");
    fi.inst.op = isa::Opcode(op);
    fi.inst.rd = r.u8();
    fi.inst.rs1 = r.u8();
    fi.inst.rs2 = r.u8();
    fi.inst.br = r.u8();
    fi.inst.count = r.u8();
    const std::uint8_t cond = r.u8();
    if (cond > std::uint8_t(isa::Cond::Lez))
        r.fail("latched condition ", unsigned(cond), " out of range");
    fi.inst.cond = isa::Cond(cond);
    fi.inst.imm = std::int32_t(r.u32());
    fi.inst.parcels = r.u8();
    latch = fi;
}

} // namespace

void
Pipeline::saveState(StateWriter &w) const
{
    _regs.saveState(w);
    _queues.saveState(w, _memOpSeq);
    saveLatch(w, _idLatch);
    saveLatch(w, _issueLatch);
    w.b(_pendingResolve.has_value());
    if (_pendingResolve) {
        w.b(_pendingResolve->taken);
        w.u32(_pendingResolve->target);
    }
    w.b(_halted);
    w.u64(_haltCycle);
    w.count(_cursor);
    // Oldest first, so the bytes do not depend on where the ring's
    // storage happens to start.
    const std::size_t head = ringHead();
    for (std::size_t i = 0; i < _retiredPcs.size(); ++i)
        w.u32(_retiredPcs[(head + i) % _retiredPcs.size()]);
    w.count(_memOpSeq);
    w.seq(_loadsAccepted, _loadsIssued);
    w.count(_loadsIssued);
    w.seq(_loadsDelivered, _loadsIssued);
    for (const Counter *c : counters(*this))
        w.count(c->value());
}

void
Pipeline::restoreState(StateReader &r)
{
    _regs.restoreState(r);
    _queues.restoreState(r);
    restoreLatch(r, _idLatch);
    restoreLatch(r, _issueLatch);
    _pendingResolve.reset();
    if (r.b()) {
        Resolve res;
        res.taken = r.b();
        res.target = r.u32();
        _pendingResolve = res;
    }
    _halted = r.b();
    _haltCycle = r.u64();
    _cursor = r.u64();
    const replay::Trace *trace = _records.trace();
    if (trace && _cursor > trace->records.size())
        r.fail("cursor ", _cursor, " past trace end");
    decltype(_retiredPcs) ring;
    for (Addr &pc : ring)
        pc = r.u32();
    _memOpSeq = r.u64();
    _loadsAccepted = r.u64();
    _loadsIssued = r.u64();
    _loadsDelivered = r.u64();
    for (Counter *c : counters(*this))
        c->set(r.u64());
    const std::size_t head = ringHead();
    for (std::size_t i = 0; i < ring.size(); ++i)
        _retiredPcs[(head + i) % ring.size()] = ring[i];
    _dataPort.refresh();
}

void
Pipeline::regStats(StatGroup &stats, const std::string &prefix)
{
    stats.regCounter(prefix + ".retired", &_retired,
                     "instructions issued/retired");
    stats.regCounter(prefix + ".stall_reg_busy", &_issueStallRegBusy,
                     "issue stalls on a busy register");
    stats.regCounter(prefix + ".stall_ldq_empty", &_issueStallLdqEmpty,
                     "issue stalls waiting for load data (r7)");
    stats.regCounter(prefix + ".stall_sdq_full", &_issueStallSdqFull,
                     "issue stalls on a full store data queue");
    stats.regCounter(prefix + ".stall_laq_full", &_issueStallLaqFull,
                     "issue stalls on a full load address queue");
    stats.regCounter(prefix + ".stall_ldq_reserved",
                     &_issueStallLdqReserved,
                     "issue stalls with no LDQ slot to reserve");
    stats.regCounter(prefix + ".stall_saq_full", &_issueStallSaqFull,
                     "issue stalls on a full store address queue");
    stats.regCounter(prefix + ".fetch_starve_cycles", &_fetchStarveCycles,
                     "cycles the decoder had no instruction available");
    stats.regCounter(prefix + ".loads", &_loads, "load instructions");
    stats.regCounter(prefix + ".stores", &_stores, "store instructions");
    stats.regCounter(prefix + ".pbr_taken", &_pbrTaken,
                     "prepare-to-branch instructions taken");
    stats.regCounter(prefix + ".pbr_not_taken", &_pbrNotTaken,
                     "prepare-to-branch instructions not taken");
    _queues.regStats(stats, prefix + ".queues");
}

} // namespace pipesim
