#include "cpu/pipeline.hh"

#include <algorithm>
#include <ostream>

#include "common/log.hh"
#include "isa/opcodes.hh"

namespace pipesim
{

using isa::Cond;
using isa::Opcode;

Pipeline::Pipeline(const PipelineConfig &config, FetchUnit &fetch,
                   MemorySystem &mem)
    : _cfg(config), _fetch(fetch), _mem(mem), _dataPort(*this),
      _queues(config.laqEntries, config.ldqEntries, config.saqEntries,
              config.sdqEntries)
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

const MemRequest *
Pipeline::peekDataOp()
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
    // A store needs its data; program order blocks behind it until
    // the SDQ entry is produced.
    if (_queues.sdq().empty())
        return nullptr;
    _storeReq.addr = saq.front().addr;
    _storeReq.storeData = _queues.sdq().front();
    return &_storeReq;
}

void
Pipeline::dataOpAccepted()
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
Pipeline::DataPort::peek()
{
    return _owner.peekDataOp();
}

void
Pipeline::DataPort::accepted()
{
    _owner.dataOpAccepted();
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

    Word a = 0;
    Word b = 0;
    if (info.hasRs1 || (inst.op == Opcode::Pbr && inst.cond != Cond::Always))
        a = readSource(inst.rs1);
    if (info.hasRs2)
        b = readSource(inst.rs2);

    _execNote = ExecAnnotation{};

    const Word imm = Word(inst.imm);
    // Logical immediates are zero-extended (so lui+ori can build full
    // 32-bit constants); arithmetic immediates are sign-extended.
    const Word uimm = imm & 0xffff;
    std::optional<Word> result;

    switch (inst.op) {
      case Opcode::Add: result = a + b; break;
      case Opcode::Sub: result = a - b; break;
      case Opcode::And: result = a & b; break;
      case Opcode::Or: result = a | b; break;
      case Opcode::Xor: result = a ^ b; break;
      case Opcode::Sll: result = a << (b & 31); break;
      case Opcode::Srl: result = a >> (b & 31); break;
      case Opcode::Sra: result = Word(SWord(a) >> (b & 31)); break;
      case Opcode::Addi: result = a + imm; break;
      case Opcode::Subi: result = a - imm; break;
      case Opcode::Andi: result = a & uimm; break;
      case Opcode::Ori: result = a | uimm; break;
      case Opcode::Xori: result = a ^ uimm; break;
      case Opcode::Slli: result = a << (imm & 31); break;
      case Opcode::Srli: result = a >> (imm & 31); break;
      case Opcode::Srai: result = Word(SWord(a) >> (imm & 31)); break;
      case Opcode::Li: result = imm; break;
      case Opcode::Lui: result = imm << 16; break;
      case Opcode::Mov: result = a; break;
      case Opcode::Not: result = ~a; break;
      case Opcode::Neg: result = Word(-SWord(a)); break;
      case Opcode::Ld:
      case Opcode::LdX: {
        const Addr addr = a + (inst.op == Opcode::Ld ? imm : b);
        _queues.laq().push(PendingAccess{_memOpSeq++, addr});
        ++_loadsIssued;
        ++_loads;
        _execNote.hasMemAddr = true;
        _execNote.memAddr = addr;
        break;
      }
      case Opcode::St:
      case Opcode::StX: {
        const Addr addr = a + (inst.op == Opcode::St ? imm : b);
        _queues.saq().push(PendingAccess{_memOpSeq++, addr});
        ++_stores;
        _execNote.hasMemAddr = true;
        _execNote.memIsStore = true;
        _execNote.memAddr = addr;
        break;
      }
      case Opcode::Lbr:
        _regs.writeBranch(inst.br, Addr(inst.imm) & 0xffff);
        break;
      case Opcode::Pbr: {
        bool taken = false;
        const SWord v = SWord(a);
        switch (inst.cond) {
          case Cond::Always: taken = true; break;
          case Cond::Eqz: taken = v == 0; break;
          case Cond::Nez: taken = v != 0; break;
          case Cond::Ltz: taken = v < 0; break;
          case Cond::Gez: taken = v >= 0; break;
          case Cond::Gtz: taken = v > 0; break;
          case Cond::Lez: taken = v <= 0; break;
        }
        if (taken)
            ++_pbrTaken;
        else
            ++_pbrNotTaken;
        _pendingResolve = Resolve{taken, _regs.readBranch(inst.br)};
        _execNote.hasBranch = true;
        _execNote.branchTaken = taken;
        _execNote.branchTarget = _pendingResolve->target;
        break;
      }
      case Opcode::Rsw:
        _regs.switchBanks();
        break;
      case Opcode::Nop:
        break;
      case Opcode::Halt:
        _halted = true;
        _haltCycle = now;
        break;
      default:
        panic("unexecutable opcode ", unsigned(inst.op));
    }

    if (result && info.hasRd) {
        if (inst.rd == isa::queueReg) {
            _queues.sdq().push(*result);
        } else {
            _regs.write(inst.rd, *result);
            _regs.setBusyUntil(inst.rd, now + _cfg.aluLatency);
        }
    }
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
            _retiredPcs[_retired.value() % _retiredPcs.size()] =
                _issueLatch->pc;
            ++_retired;
            cls = _halted ? obs::CycleClass::Drain
                          : obs::CycleClass::Issue;
            if (_probes && _probes->retire.active())
                _probes->retire.notify(obs::RetireEvent{
                    now, *_issueLatch, _execNote.hasMemAddr,
                    _execNote.memIsStore, _execNote.memAddr,
                    _execNote.hasBranch, _execNote.branchTaken,
                    _execNote.branchTarget});
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
