#include "cpu/pipeline.hh"

#include <algorithm>
#include <ostream>

#include "common/log.hh"
#include "isa/opcodes.hh"
#include "replay/trace_format.hh"

namespace pipesim
{

using isa::Cond;
using isa::Opcode;

Pipeline::Pipeline(const PipelineConfig &config, FetchUnit &fetch,
                   MemorySystem &mem, const replay::Trace *trace,
                   std::size_t firstRecord)
    : _cfg(config), _fetch(fetch), _mem(mem), _trace(trace),
      _dataPort(*this),
      _queues(config.laqEntries, config.ldqEntries, config.saqEntries,
              config.sdqEntries),
      _cursor(firstRecord)
{
    _mem.setDataClient(&_dataPort);
    _loadReq.bytes = _storeReq.bytes = wordBytes;
    _storeReq.isStore = true;
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

const MemRequest *
Pipeline::DataPort::peek()
{
    ArchQueues &q = _owner._queues;
    if (_owner.loadIsNext()) {
        _owner._loadReq.addr = q.laq().front().addr;
        _owner._loadReq.dataSeq = _owner._loadsAccepted;
        return &_owner._loadReq;
    }
    // A store needs its data; program order blocks behind it until
    // the SDQ entry is produced.
    if (q.saq().empty() || q.sdq().empty())
        return nullptr;
    _owner._storeReq.addr = q.saq().front().addr;
    _owner._storeReq.storeData = q.sdq().front();
    return &_owner._storeReq;
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
}

void
Pipeline::DataPort::loadData(const MemRequest &, Word value)
{
    PIPESIM_ASSERT(!_owner._queues.ldq().full(),
                   "LDQ overflow: reservation logic broken");
    _owner._queues.ldq().push(value);
    ++_owner._loadsDelivered;
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
    unsigned ldq_pops = 0;
    for (std::uint8_t r : inst.srcRegs()) {
        if (r == isa::queueReg) {
            ++ldq_pops;
        } else if (_regs.busyUntil(r) > now) {
            return StallReason::RegBusy;
        }
    }
    if (ldq_pops > _queues.ldq().size())
        return StallReason::LdqEmpty;
    if (inst.pushesSdq() && _queues.sdq().full())
        return StallReason::SdqFull;
    if (inst.isLoad()) {
        if (_queues.laq().full())
            return StallReason::LaqFull;
        // Reserve an LDQ slot: entries present, minus the ones this
        // instruction pops, plus loads still in flight, plus this one.
        const std::size_t in_flight = _loadsIssued - _loadsDelivered;
        if (_queues.ldq().size() - ldq_pops + in_flight + 1 >
            _queues.ldq().capacity())
            return StallReason::LdqReserved;
    }
    if (inst.isStore() && _queues.saq().full())
        return StallReason::SaqFull;
    return StallReason::None;
}

Word
Pipeline::readSource(unsigned r)
{
    if (r == isa::queueReg)
        return _queues.ldq().pop();
    return _regs.read(r);
}

void
Pipeline::execute(const isa::FetchedInst &fi, Cycle now)
{
    const isa::Instruction &inst = fi.inst;
    const auto &info = isa::opcodeInfo(inst.op);

    // Source reads pop the LDQ for r7 under either value source (the
    // hazard check already proved it holds enough entries).
    Word a = 0;
    Word b = 0;
    if (info.hasRs1 || (inst.op == Opcode::Pbr && inst.cond != Cond::Always))
        a = readSource(inst.rs1);
    if (info.hasRs2)
        b = readSource(inst.rs2);

    const Outcome o = _trace ? traced(fi) : compute(inst, a, b);

    // The commit step, shared by both value sources.
    switch (inst.op) {
      case Opcode::Ld:
      case Opcode::LdX:
        _queues.laq().push(PendingAccess{_memOpSeq++, o.memAddr});
        ++_loadsIssued;
        ++_loads;
        break;
      case Opcode::St:
      case Opcode::StX:
        _queues.saq().push(PendingAccess{_memOpSeq++, o.memAddr});
        ++_stores;
        break;
      case Opcode::Pbr:
        if (o.taken)
            ++_pbrTaken;
        else
            ++_pbrNotTaken;
        _pendingResolve = Resolve{o.taken, o.target};
        break;
      case Opcode::Rsw:
        // Bank switches redirect which busy-until slots later reads
        // check, so they are timing state under either value source.
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
            _queues.sdq().push(o.result);
        } else {
            _regs.write(inst.rd, o.result);
            _regs.setBusyUntil(inst.rd, now + _cfg.aluLatency);
        }
    }

    ++_cursor;
    _retiredPcs[_retired.value() % _retiredPcs.size()] = fi.pc;
    ++_retired;
    if (_probes && _probes->retire.active())
        _probes->retire.notify(obs::RetireEvent{
            now, fi, info.isLoad || info.isStore, info.isStore,
            o.memAddr, inst.isPbr(), o.taken, o.target});
}

Pipeline::Outcome
Pipeline::compute(const isa::Instruction &inst, Word a, Word b)
{
    const Word imm = Word(inst.imm);
    // Logical immediates are zero-extended (so lui+ori can build full
    // 32-bit constants); arithmetic immediates are sign-extended.
    const Word uimm = imm & 0xffff;
    Outcome o;

    switch (inst.op) {
      case Opcode::Add: o.result = a + b; break;
      case Opcode::Sub: o.result = a - b; break;
      case Opcode::And: o.result = a & b; break;
      case Opcode::Or: o.result = a | b; break;
      case Opcode::Xor: o.result = a ^ b; break;
      case Opcode::Sll: o.result = a << (b & 31); break;
      case Opcode::Srl: o.result = a >> (b & 31); break;
      case Opcode::Sra: o.result = Word(SWord(a) >> (b & 31)); break;
      case Opcode::Addi: o.result = a + imm; break;
      case Opcode::Subi: o.result = a - imm; break;
      case Opcode::Andi: o.result = a & uimm; break;
      case Opcode::Ori: o.result = a | uimm; break;
      case Opcode::Xori: o.result = a ^ uimm; break;
      case Opcode::Slli: o.result = a << (imm & 31); break;
      case Opcode::Srli: o.result = a >> (imm & 31); break;
      case Opcode::Srai: o.result = Word(SWord(a) >> (imm & 31)); break;
      case Opcode::Li: o.result = imm; break;
      case Opcode::Lui: o.result = imm << 16; break;
      case Opcode::Mov: o.result = a; break;
      case Opcode::Not: o.result = ~a; break;
      case Opcode::Neg: o.result = Word(-SWord(a)); break;
      case Opcode::Ld:
      case Opcode::St: o.memAddr = a + imm; break;
      case Opcode::LdX:
      case Opcode::StX: o.memAddr = a + b; break;
      case Opcode::Lbr:
        _regs.writeBranch(inst.br, Addr(inst.imm) & 0xffff);
        break;
      case Opcode::Pbr: {
        const SWord v = SWord(a);
        switch (inst.cond) {
          case Cond::Always: o.taken = true; break;
          case Cond::Eqz: o.taken = v == 0; break;
          case Cond::Nez: o.taken = v != 0; break;
          case Cond::Ltz: o.taken = v < 0; break;
          case Cond::Gez: o.taken = v >= 0; break;
          case Cond::Gtz: o.taken = v > 0; break;
          case Cond::Lez: o.taken = v <= 0; break;
        }
        o.target = _regs.readBranch(inst.br);
        break;
      }
      case Opcode::Rsw:
      case Opcode::Nop:
      case Opcode::Halt:
        break;
      default:
        panic("unexecutable opcode ", unsigned(inst.op));
    }
    return o;
}

bool
Pipeline::traceExhausted() const
{
    return _trace && _cursor >= _trace->records.size();
}

Pipeline::Outcome
Pipeline::traced(const isa::FetchedInst &fi) const
{
    const auto provenance = [this] {
        return _trace->meta.provenance.empty() ? "none"
                                               : _trace->meta.provenance;
    };
    if (_cursor >= _trace->records.size())
        fatal("trace replay: the fetch stream issued instruction #",
              _cursor, " at pc 0x", std::hex, fi.pc, std::dec,
              " but the trace holds only ", _trace->records.size(),
              " records — the trace does not match this program "
              "(capture provenance: ",
              provenance(), ")");
    const replay::TraceRecord &r = _trace->records[_cursor];
    const isa::Instruction &inst = fi.inst;
    if (r.pc != fi.pc ||
        r.hasMemAddr != (inst.isLoad() || inst.isStore()) ||
        r.memIsStore != inst.isStore() || r.isPbr != inst.isPbr())
        fatal("trace replay diverged at record #", _cursor,
              ": trace says pc 0x", std::hex, r.pc,
              " but the machine issued pc 0x", fi.pc, std::dec,
              " — the trace was captured from a different program "
              "(capture provenance: ",
              provenance(), ")");
    return Outcome{0, r.memAddr, r.branchTaken, r.branchTarget};
}

void
Pipeline::tick(Cycle now)
{
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
        const StallReason hazard = issueHazard(_issueLatch->inst, now);
        switch (hazard) {
          case StallReason::None:
            execute(*_issueLatch, now);
            cls = _halted ? obs::CycleClass::Drain
                          : obs::CycleClass::Issue;
            _issueLatch.reset();
            break;
          case StallReason::RegBusy:
            ++_issueStallRegBusy;
            cls = obs::CycleClass::RegBusy;
            break;
          case StallReason::LdqEmpty:
            ++_issueStallLdqEmpty;
            cls = obs::CycleClass::LoadDataWait;
            break;
          case StallReason::SdqFull:
            ++_issueStallSdqFull;
            cls = obs::CycleClass::QueueFull;
            break;
          case StallReason::LaqFull:
            ++_issueStallLaqFull;
            cls = obs::CycleClass::QueueFull;
            break;
          case StallReason::LdqReserved:
            ++_issueStallLdqReserved;
            cls = obs::CycleClass::QueueFull;
            break;
          case StallReason::SaqFull:
            ++_issueStallSaqFull;
            cls = obs::CycleClass::QueueFull;
            break;
        }
    }

    // 3. Advance the decode latch into the issue latch.
    if (!_issueLatch && _idLatch) {
        _issueLatch = _idLatch;
        _idLatch.reset();
    }

    // 4. Fetch into the decode latch.
    if (!_halted && !_idLatch) {
        if (_fetch.instructionReady())
            _idLatch = _fetch.take();
        else
            ++_fetchStarveCycles;
    }

    if (_cpiStack)
        _cpiStack->account(cls, _mem.demandFetchContended());
    if (_probes && _probes->cycleClass.active())
        _probes->cycleClass.notify(obs::CycleClassEvent{now, cls});
}

void
Pipeline::dumpState(std::ostream &os) const
{
    const auto flags = os.flags();
    os << "pipeline: " << (_halted ? "halted" : "running")
       << ", retired " << _retired.value() << " instruction(s)";
    if (_halted)
        os << " (HALT issued at cycle " << _haltCycle << ")";
    if (_trace)
        os << ", next trace record #" << _cursor << " of "
           << _trace->records.size();
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
    _queues.saveState(w);
    saveLatch(w, _idLatch);
    saveLatch(w, _issueLatch);
    w.b(_pendingResolve.has_value());
    if (_pendingResolve) {
        w.b(_pendingResolve->taken);
        w.u32(_pendingResolve->target);
    }
    w.b(_halted);
    w.u64(_haltCycle);
    w.u64(_cursor);
    for (Addr pc : _retiredPcs)
        w.u32(pc);
    w.u64(_memOpSeq);
    w.u64(_loadsAccepted);
    w.u64(_loadsIssued);
    w.u64(_loadsDelivered);
    for (const Counter *c : counters(*this))
        w.u64(c->value());
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
    if (_trace && _cursor > _trace->records.size())
        r.fail("cursor ", _cursor, " past trace end");
    for (Addr &pc : _retiredPcs)
        pc = r.u32();
    _memOpSeq = r.u64();
    _loadsAccepted = r.u64();
    _loadsIssued = r.u64();
    _loadsDelivered = r.u64();
    for (Counter *c : counters(*this))
        c->set(r.u64());
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
