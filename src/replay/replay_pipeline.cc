#include "replay/replay_pipeline.hh"

#include <ostream>

#include "common/log.hh"
#include "isa/opcodes.hh"

namespace pipesim::replay
{

using isa::Cond;
using isa::Opcode;

namespace
{

/**
 * Opcodes whose execution produces an ALU result (the `result`
 * optional in Pipeline::execute()): these, and only these, write a
 * destination register or push the SDQ, so they are the ones whose
 * issue sets a busy-until timestamp.  Must track Pipeline::execute's
 * switch; the cross-engine validation tests catch drift.
 */
bool
producesAluResult(Opcode op)
{
    switch (op) {
      case Opcode::Add:
      case Opcode::Sub:
      case Opcode::And:
      case Opcode::Or:
      case Opcode::Xor:
      case Opcode::Sll:
      case Opcode::Srl:
      case Opcode::Sra:
      case Opcode::Addi:
      case Opcode::Subi:
      case Opcode::Andi:
      case Opcode::Ori:
      case Opcode::Xori:
      case Opcode::Slli:
      case Opcode::Srli:
      case Opcode::Srai:
      case Opcode::Li:
      case Opcode::Lui:
      case Opcode::Mov:
      case Opcode::Not:
      case Opcode::Neg:
        return true;
      default:
        return false;
    }
}

} // namespace

ReplayPipeline::ReplayPipeline(const PipelineConfig &config,
                               FetchUnit &fetch, MemorySystem &mem,
                               const Trace &trace,
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

ReplayPipeline::~ReplayPipeline()
{
    _mem.setDataClient(nullptr);
}

bool
ReplayPipeline::drained() const
{
    return _queues.laq().empty() && _queues.saq().empty() &&
           _queues.sdq().empty() && _loadsIssued == _loadsDelivered;
}

const MemRequest *
ReplayPipeline::peekDataOp()
{
    const auto &laq = _queues.laq();
    const auto &saq = _queues.saq();
    const bool have_load = !laq.empty();
    const bool have_store = !saq.empty();
    if (!have_load && !have_store)
        return nullptr;

    bool pick_load;
    if (have_load && have_store)
        pick_load = laq.front().seq < saq.front().seq;
    else
        pick_load = have_load;

    if (pick_load) {
        _loadReq.addr = laq.front().addr;
        _loadReq.dataSeq = _loadsAccepted;
        return &_loadReq;
    }
    if (_queues.sdq().empty())
        return nullptr;
    _storeReq.addr = saq.front().addr;
    _storeReq.storeData = _queues.sdq().front();
    return &_storeReq;
}

void
ReplayPipeline::dataOpAccepted()
{
    auto &laq = _queues.laq();
    auto &saq = _queues.saq();
    const bool have_load = !laq.empty();
    const bool have_store = !saq.empty();
    PIPESIM_ASSERT(have_load || have_store, "acceptance with empty queues");
    bool pick_load;
    if (have_load && have_store)
        pick_load = laq.front().seq < saq.front().seq;
    else
        pick_load = have_load;

    if (pick_load) {
        laq.pop();
        ++_loadsAccepted;
    } else {
        saq.pop();
        _queues.sdq().pop();
    }
}

const MemRequest *
ReplayPipeline::DataPort::peek()
{
    return _owner.peekDataOp();
}

void
ReplayPipeline::DataPort::accepted()
{
    _owner.dataOpAccepted();
}

void
ReplayPipeline::DataPort::loadData(const MemRequest &, Word)
{
    PIPESIM_ASSERT(!_owner._queues.ldq().full(),
                   "LDQ overflow: reservation logic broken");
    // The loaded value is timing-irrelevant; park a zero.
    _owner._queues.ldq().push(0);
    ++_owner._loadsDelivered;
}

ReplayPipeline::StallReason
ReplayPipeline::issueHazard(const isa::Instruction &inst, Cycle now) const
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
        const std::size_t in_flight = _loadsIssued - _loadsDelivered;
        if (_queues.ldq().size() - ldq_pops + in_flight + 1 >
            _queues.ldq().capacity())
            return StallReason::LdqReserved;
    }
    if (inst.isStore() && _queues.saq().full())
        return StallReason::SaqFull;
    return StallReason::None;
}

const TraceRecord &
ReplayPipeline::recordFor(const isa::FetchedInst &fi)
{
    if (_cursor >= _trace.records.size())
        fatal("trace replay: the fetch stream issued instruction #",
              _cursor, " at pc 0x", std::hex, fi.pc, std::dec,
              " but the trace holds only ", _trace.records.size(),
              " records — the trace does not match this program "
              "(capture provenance: ",
              _trace.meta.provenance.empty() ? "none"
                                             : _trace.meta.provenance,
              ")");
    const TraceRecord &r = _trace.records[_cursor];
    const isa::Instruction &inst = fi.inst;
    const bool mismatch =
        r.pc != fi.pc ||
        r.hasMemAddr != (inst.isLoad() || inst.isStore()) ||
        r.memIsStore != inst.isStore() || r.isPbr != inst.isPbr();
    if (mismatch)
        fatal("trace replay diverged at record #", _cursor,
              ": trace says pc 0x", std::hex, r.pc,
              " but the machine issued pc 0x", fi.pc, std::dec,
              " — the trace was captured from a different program "
              "(capture provenance: ",
              _trace.meta.provenance.empty() ? "none"
                                             : _trace.meta.provenance,
              ")");
    ++_cursor;
    return r;
}

void
ReplayPipeline::execute(const isa::FetchedInst &fi, Cycle now)
{
    const isa::Instruction &inst = fi.inst;
    const auto &info = isa::opcodeInfo(inst.op);
    const TraceRecord &rec = recordFor(fi);

    // Source reads: only the r7 pops matter (register values are
    // never consumed for timing); the hazard check already proved the
    // LDQ holds enough entries.
    for (std::uint8_t r : inst.srcRegs())
        if (r == isa::queueReg)
            _queues.ldq().pop();

    switch (inst.op) {
      case Opcode::Ld:
      case Opcode::LdX:
        _queues.laq().push(PendingAccess{_memOpSeq++, rec.memAddr});
        ++_loadsIssued;
        ++_loads;
        break;
      case Opcode::St:
      case Opcode::StX:
        _queues.saq().push(PendingAccess{_memOpSeq++, rec.memAddr});
        ++_stores;
        break;
      case Opcode::Lbr:
        break; // branch registers are bypassed by the trace targets
      case Opcode::Pbr:
        if (rec.branchTaken)
            ++_pbrTaken;
        else
            ++_pbrNotTaken;
        _pendingResolve = Resolve{rec.branchTaken, rec.branchTarget};
        break;
      case Opcode::Rsw:
        // Bank switches redirect which busy-until slots later reads
        // check, so they are timing-relevant.
        _regs.switchBanks();
        break;
      case Opcode::Nop:
        break;
      case Opcode::Halt:
        _halted = true;
        _haltCycle = now;
        break;
      default:
        PIPESIM_ASSERT(producesAluResult(inst.op),
                       "unexecutable opcode in trace replay");
        break;
    }

    if (producesAluResult(inst.op) && info.hasRd) {
        if (inst.rd == isa::queueReg) {
            _queues.sdq().push(0); // value is timing-irrelevant
        } else {
            _regs.setBusyUntil(inst.rd, now + _cfg.aluLatency);
        }
    }
}

void
ReplayPipeline::tick(Cycle now)
{
    // Mirror of Pipeline::tick, step for step.
    if (_pendingResolve) {
        _fetch.branchResolved(_pendingResolve->taken,
                              _pendingResolve->target);
        _pendingResolve.reset();
    }

    _queues.sampleOccupancy();

    if (_halted) {
        // Drain phase: nothing issues.
    } else if (_issueLatch) {
        const StallReason hazard = issueHazard(_issueLatch->inst, now);
        switch (hazard) {
          case StallReason::None:
            execute(*_issueLatch, now);
            ++_retired;
            _issueLatch.reset();
            break;
          case StallReason::RegBusy:
            ++_issueStallRegBusy;
            break;
          case StallReason::LdqEmpty:
            ++_issueStallLdqEmpty;
            break;
          case StallReason::SdqFull:
            ++_issueStallSdqFull;
            break;
          case StallReason::LaqFull:
            ++_issueStallLaqFull;
            break;
          case StallReason::LdqReserved:
            ++_issueStallLdqReserved;
            break;
          case StallReason::SaqFull:
            ++_issueStallSaqFull;
            break;
        }
    }

    if (!_issueLatch && _idLatch) {
        _issueLatch = _idLatch;
        _idLatch.reset();
    }

    if (!_halted && !_idLatch) {
        if (_fetch.instructionReady())
            _idLatch = _fetch.take();
        else
            ++_fetchStarveCycles;
    }
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
ReplayPipeline::saveState(StateWriter &w) const
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
    w.u64(_memOpSeq);
    w.u64(_loadsAccepted);
    w.u64(_loadsIssued);
    w.u64(_loadsDelivered);
    w.u64(_retired.value());
    w.u64(_issueStallRegBusy.value());
    w.u64(_issueStallLdqEmpty.value());
    w.u64(_issueStallSdqFull.value());
    w.u64(_issueStallLaqFull.value());
    w.u64(_issueStallLdqReserved.value());
    w.u64(_issueStallSaqFull.value());
    w.u64(_fetchStarveCycles.value());
    w.u64(_loads.value());
    w.u64(_stores.value());
    w.u64(_pbrTaken.value());
    w.u64(_pbrNotTaken.value());
}

void
ReplayPipeline::restoreState(StateReader &r)
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
    if (_cursor > _trace.records.size())
        r.fail("cursor ", _cursor, " past trace end");
    _memOpSeq = r.u64();
    _loadsAccepted = r.u64();
    _loadsIssued = r.u64();
    _loadsDelivered = r.u64();
    _retired.set(r.u64());
    _issueStallRegBusy.set(r.u64());
    _issueStallLdqEmpty.set(r.u64());
    _issueStallSdqFull.set(r.u64());
    _issueStallLaqFull.set(r.u64());
    _issueStallLdqReserved.set(r.u64());
    _issueStallSaqFull.set(r.u64());
    _fetchStarveCycles.set(r.u64());
    _loads.set(r.u64());
    _stores.set(r.u64());
    _pbrTaken.set(r.u64());
    _pbrNotTaken.set(r.u64());
}

void
ReplayPipeline::dumpState(std::ostream &os) const
{
    os << "replay pipeline: " << (_halted ? "halted" : "running")
       << ", retired " << _retired.value() << " instruction(s), next "
       << "trace record #" << _cursor << " of "
       << _trace.records.size() << "\n";
    os << "  queues: laq " << _queues.laq().size() << "/"
       << _queues.laq().capacity() << ", ldq " << _queues.ldq().size()
       << "/" << _queues.ldq().capacity() << ", saq "
       << _queues.saq().size() << "/" << _queues.saq().capacity()
       << ", sdq " << _queues.sdq().size() << "/"
       << _queues.sdq().capacity() << "\n";
    os << "  loads issued/accepted/delivered: " << _loadsIssued << "/"
       << _loadsAccepted << "/" << _loadsDelivered << "\n";
}

void
ReplayPipeline::regStats(StatGroup &stats, const std::string &prefix)
{
    // Counter names match cpu/pipeline.cc exactly, so a replayed
    // SimResult is key-compatible with the cycle simulator's.
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

} // namespace pipesim::replay
