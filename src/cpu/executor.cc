#include "cpu/executor.hh"

#include "assembler/program.hh"
#include "isa/decode.hh"
#include "mem/data_memory.hh"

namespace pipesim
{

using isa::Cond;
using isa::Opcode;

Executor::Executor(const Program &program, DataMemory &mem)
    : _program(program), _mem(mem),
      _decoded(program.codeSize() / parcelBytes,
               isa::Instruction{.parcels = 0}),
      _pastEnd(isa::decode(0, 0, program.mode()))
{
    _stream.reset(program.entry());
}

const isa::Instruction *
Executor::decodeAt(Addr pc)
{
    // As the fetch side decodes: past the code image, the zero parcel.
    if (!_program.inCode(pc))
        return &_pastEnd;
    if (pc % parcelBytes != 0)
        return nullptr;
    isa::Instruction &inst =
        _decoded[(pc - _program.codeBase()) / parcelBytes];
    if (inst.parcels == 0) {
        const auto decoded = _program.decodeAt(pc);
        if (!decoded)
            return nullptr;
        inst = *decoded;
    }
    return &inst;
}

bool
Executor::step(replay::TraceRecord &rec)
{
    if (!_end.empty())
        return false;
    const Addr pc = *_stream.nextAddr();
    const isa::Instruction *decoded = decodeAt(pc);
    if (!decoded) {
        _end = detail::buildMessage("pc 0x", std::hex, pc, " does not decode");
        return false;
    }
    const isa::Instruction &inst = *decoded;
    const auto &info = isa::opcodeInfo(inst.op);

    // Everything older has executed and drained, so an r7 value that
    // is not here yet never arrives.
    bool starved = false;
    const auto source = [this, &starved](unsigned r) {
        if (r != isa::queueReg)
            return _regs.read(r);
        if (_ldq.empty() || !_ldq.front()) {
            starved = true;
            return Word(0);
        }
        const Word v = *_ldq.front();
        _ldq.pop_front();
        return v;
    };
    Word a = 0;
    Word b = 0;
    if (info.hasRs1 || (inst.op == Opcode::Pbr && inst.cond != Cond::Always))
        a = source(inst.rs1);
    if (info.hasRs2)
        b = source(inst.rs2);
    if (starved) {
        _end = detail::buildMessage("r7 read at pc 0x", std::hex, pc,
                                    " waits on load data that never arrives");
        return false;
    }

    const Word imm = Word(inst.imm);
    // Logical immediates are zero-extended (so lui+ori can build full
    // 32-bit constants); arithmetic immediates are sign-extended.
    const Word uimm = imm & 0xffff;
    Word result = 0;
    rec = replay::TraceRecord{};
    rec.pc = pc;
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
      case Opcode::St: rec.memAddr = a + imm; break;
      case Opcode::LdX:
      case Opcode::StX: rec.memAddr = a + b; break;
      case Opcode::Lbr:
        _regs.writeBranch(inst.br, Addr(inst.imm) & 0xffff);
        break;
      case Opcode::Pbr: {
        const SWord v = SWord(a);
        switch (inst.cond) {
          case Cond::Always: rec.branchTaken = true; break;
          case Cond::Eqz: rec.branchTaken = v == 0; break;
          case Cond::Nez: rec.branchTaken = v != 0; break;
          case Cond::Ltz: rec.branchTaken = v < 0; break;
          case Cond::Gez: rec.branchTaken = v >= 0; break;
          case Cond::Gtz: rec.branchTaken = v > 0; break;
          case Cond::Lez: rec.branchTaken = v <= 0; break;
        }
        rec.branchTarget = _regs.readBranch(inst.br);
        break;
      }
      case Opcode::Rsw: _regs.switchBanks(); break;
      case Opcode::Halt: _halted = true; break;
      case Opcode::Nop:
      case Opcode::NumOpcodes:
        break;
    }
    if (info.hasRd && inst.rd == isa::queueReg)
        _sdq.push_back(result);
    else if (info.hasRd)
        _regs.write(inst.rd, result);
    rec.hasMemAddr = info.isLoad || info.isStore;
    rec.memIsStore = info.isStore;
    if (rec.hasMemAddr)
        _memOps.push_back(MemOp{rec.memAddr, info.isStore});
    rec.isPbr = inst.isPbr();
    _stream.delivered(inst);
    if (rec.isPbr)
        _stream.resolved(rec.branchTaken, rec.branchTarget);

    drain();
    ++_position;
    if (_halted)
        _end = "the program halted";
    return true;
}

void
Executor::drain()
{
    while (!_memOps.empty()) {
        const MemOp op = _memOps.front();
        if (op.isStore && _sdq.empty())
            return; // its data comes from a later instruction
        const Word data = op.isStore ? _sdq.front() : 0;
        if (op.isStore)
            _sdq.pop_front();
        _memOps.pop_front();
        if (FpuDevice::contains(op.addr)) {
            const FpuOp kind = FpuDevice::kindOf(op.addr);
            FpuKind &fpu = _fpu[unsigned(kind)];
            // A store to a result word, or a load from an operand, is
            // the timing model's fatal error.
            if (!op.isStore)
                fpu.reads.push_back(&_ldq.emplace_back());
            else if (FpuDevice::offsetOf(op.addr) == 0)
                fpu.latchA = data;
            else if (FpuDevice::offsetOf(op.addr) == 4)
                fpu.results.push_back(
                    FpuDevice::compute(kind, fpu.latchA, data));
            for (; !fpu.reads.empty() && !fpu.results.empty();
                 fpu.reads.pop_front(), fpu.results.pop_front())
                *fpu.reads.front() = fpu.results.front();
        } else if (std::size_t(op.addr) + wordBytes > _mem.size()) {
            _end = detail::buildMessage("data access at 0x", std::hex,
                                        op.addr, " is outside the ",
                                        std::dec, _mem.size(),
                                        "-byte backing store");
            return;
        } else if (!op.isStore) {
            _ldq.push_back(load(op.addr));
        } else if (_position < _commitBelow) {
            _mem.writeWord(op.addr, data);
        } else {
            _pending.push_back(Write{_position, op.addr, data});
        }
    }
}

Word
Executor::load(Addr addr) const
{
    Word v = _mem.readWord(addr);
    // Stores of unconsumed records, oldest first, byte by byte.
    for (const Write &w : _pending) {
        for (unsigned i = 0; i < wordBytes; ++i) {
            const Addr off = w.addr + i - addr;
            if (off < wordBytes)
                v = (v & ~(0xffu << 8 * off)) |
                    ((w.value >> 8 * i & 0xffu) << 8 * off);
        }
    }
    return v;
}

void
Executor::applyOldest()
{
    _mem.writeWord(_pending.front().addr, _pending.front().value);
    _pending.pop_front();
}

RecordStream::RecordStream(const replay::Trace &trace)
    : _trace(&trace), _data(trace.records.data()),
      _count(trace.records.size())
{
}

RecordStream::RecordStream(const Program &program, DataMemory &mem)
    : _program(&program), _mem(&mem),
      _exec(std::make_unique<Executor>(program, mem)), _ring(1024),
      _data(_ring.data()), _mask(_ring.size() - 1)
{
}

RecordStream::~RecordStream() = default;

const replay::TraceRecord *
RecordStream::fill(std::size_t i)
{
    if (!_exec || i < _base)
        return nullptr;
    while (_base + _count <= i) {
        if (_count == _ring.size()) {
            // Release what neither the pipeline nor the memo reads
            // again; grow only when nothing is.
            const std::size_t done = _exec->committed();
            const std::size_t floor = std::max(
                std::min(done, _keep), done - std::min(done, lookBack));
            if (floor > _base) {
                const std::size_t n = std::min(floor - _base, _count);
                _base += n;
                _count -= n;
            } else {
                std::vector<replay::TraceRecord> ring(2 * _ring.size());
                for (std::size_t j = _base; j < _base + _count; ++j)
                    ring[j & (ring.size() - 1)] = _ring[j & _mask];
                _ring.swap(ring);
                _data = _ring.data();
                _mask = _ring.size() - 1;
            }
        }
        if (!_exec->step(_ring[(_base + _count) & _mask]))
            return nullptr;
        ++_count;
    }
    return &_ring[i & _mask];
}

bool
RecordStream::seek(std::size_t i)
{
    if (!_exec)
        return true;
    if (i < _exec->committed()) {
        *_mem = DataMemory(_mem->size());
        _mem->loadProgram(*_program);
        _exec = std::make_unique<Executor>(*_program, *_mem);
        _base = _count = 0;
    }
    _keep = i;
    consume(i);
    return _base + _count >= i || at(i - 1);
}

std::string
RecordStream::endReason() const
{
    return _exec ? _exec->endReason() : std::string();
}

} // namespace pipesim
