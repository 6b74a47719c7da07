#include "assembler/assembler.hh"

#include <bit>
#include <cmath>
#include <fstream>
#include <sstream>

#include "assembler/lexer.hh"
#include "common/log.hh"
#include "common/strutil.hh"
#include "isa/fields.hh"

namespace pipesim::assembler
{

namespace
{

/** A parsed operand, prior to symbol resolution. */
struct Operand
{
    enum class Kind { Reg, BReg, Imm, Sym, MemImm, MemReg } kind;
    int reg = 0;           //!< Reg/BReg index; Mem base register
    std::int64_t imm = 0;  //!< Imm value; Mem displacement
    std::string sym;       //!< Sym name; Mem symbolic displacement
    int index = 0;         //!< MemReg index register
};

/** A parsed instruction line awaiting encoding. */
struct PendingInst
{
    unsigned line;
    Addr addr;
    std::string mnemonic;
    std::vector<Operand> operands;
};

/** A pending data word whose value is a symbol. */
struct PendingDataSym
{
    unsigned line;
    std::size_t segment;
    std::size_t offset;
    std::string sym;
};

class AssemblerImpl
{
  public:
    AssemblerImpl(isa::FormatMode mode, Addr code_base)
        : _program(mode, code_base), _mode(mode), _loc(code_base)
    {
    }

    Program run(const std::string &source);

  private:
    // --- pass 1 -------------------------------------------------------
    void processLine(const std::string &text, unsigned line_no);
    void processDirective(const std::vector<Token> &toks, std::size_t &i,
                          unsigned line_no);
    void processInstruction(const std::vector<Token> &toks, std::size_t &i,
                            unsigned line_no);
    std::vector<Operand> parseOperands(const std::vector<Token> &toks,
                                       std::size_t &i, unsigned line_no);
    Operand parseOperand(const std::vector<Token> &toks, std::size_t &i,
                         unsigned line_no);

    /** Encoded size in bytes of a parsed instruction. */
    unsigned instSize(const PendingInst &pi) const;

    // --- pass 2 -------------------------------------------------------
    void encodeAll();
    isa::Instruction buildInstruction(const PendingInst &pi);
    std::int64_t resolveImm(const Operand &op, unsigned line);

    // --- helpers ------------------------------------------------------
    template <typename... Args>
    void
    error(unsigned line, Args &&...args)
    {
        std::ostringstream os;
        os << "line " << line << ": ";
        (os << ... << std::forward<Args>(args));
        _errors.push_back(os.str());
    }

    /** Like error(), but pinpoints the offending token's column. */
    template <typename... Args>
    void
    errorAt(const Token &t, Args &&...args)
    {
        std::ostringstream os;
        os << "line " << t.line << ", col " << t.column << ": ";
        (os << ... << std::forward<Args>(args));
        _errors.push_back(os.str());
    }

    void
    defineSymbolChecked(const std::string &name, Addr value, unsigned line)
    {
        if (_program.symbol(name)) {
            error(line, "symbol '", name, "' redefined");
            return;
        }
        _program.defineSymbol(name, value);
    }

    bool inData() const { return _dataSegment.has_value(); }

    void
    appendDataBytes(const std::vector<std::uint8_t> &bytes)
    {
        auto &seg = _dataSegs[*_dataSegment];
        seg.bytes.insert(seg.bytes.end(), bytes.begin(), bytes.end());
    }

    Program _program;
    isa::FormatMode _mode;
    Addr _loc;
    std::vector<std::string> _errors;
    std::vector<PendingInst> _pending;

    struct DataSeg
    {
        Addr base;
        std::vector<std::uint8_t> bytes;
    };
    std::vector<DataSeg> _dataSegs;
    std::optional<std::size_t> _dataSegment;
    std::vector<PendingDataSym> _dataSyms;
    std::optional<std::string> _entrySym;
    std::optional<Addr> _entryAddr;
    std::size_t _codePad = 0; //!< zero padding owed before next inst
};

Program
AssemblerImpl::run(const std::string &source)
{
    std::istringstream in(source);
    std::string line;
    unsigned line_no = 0;
    while (std::getline(in, line)) {
        ++line_no;
        try {
            processLine(line, line_no);
        } catch (const FatalError &e) {
            _errors.push_back(e.what());
        }
    }

    encodeAll();

    for (const auto &seg : _dataSegs)
        _program.addDataSegment(seg.base, seg.bytes);

    if (_entrySym) {
        if (auto v = _program.symbol(*_entrySym))
            _program.setEntry(*v);
        else
            _errors.push_back("undefined entry symbol '" + *_entrySym +
                              "'");
    } else if (_entryAddr) {
        _program.setEntry(*_entryAddr);
    }

    if (!_errors.empty()) {
        std::ostringstream os;
        os << "assembly failed with " << _errors.size() << " error(s):";
        for (const auto &e : _errors)
            os << "\n  " << e;
        fatal(os.str());
    }
    return std::move(_program);
}

void
AssemblerImpl::processLine(const std::string &text, unsigned line_no)
{
    auto toks = tokenizeLine(text, line_no);
    std::size_t i = 0;

    // Labels (possibly several per line).
    while (toks[i].kind == TokenKind::Ident && i + 1 < toks.size() &&
           toks[i + 1].kind == TokenKind::Colon) {
        const Addr label_addr = inData()
            ? _dataSegs[*_dataSegment].base +
                  Addr(_dataSegs[*_dataSegment].bytes.size())
            : _loc;
        defineSymbolChecked(toks[i].text, label_addr, line_no);
        i += 2;
    }

    if (toks[i].kind == TokenKind::EndOfLine)
        return;

    if (toks[i].kind == TokenKind::Directive) {
        processDirective(toks, i, line_no);
        return;
    }

    if (toks[i].kind != TokenKind::Ident) {
        errorAt(toks[i], "expected mnemonic, got '", toks[i].text, "'");
        return;
    }
    processInstruction(toks, i, line_no);
}

void
AssemblerImpl::processDirective(const std::vector<Token> &toks,
                                std::size_t &i, unsigned line_no)
{
    const std::string dir = toks[i].text;
    ++i;

    auto expectInt = [&]() -> std::optional<std::int64_t> {
        if (toks[i].kind != TokenKind::Int) {
            error(line_no, dir, " expects an integer operand");
            return std::nullopt;
        }
        return toks[i++].value;
    };

    if (dir == ".org") {
        if (auto v = expectInt()) {
            if (inData()) {
                error(line_no, ".org not allowed inside .data");
                return;
            }
            if (Addr(*v) < _loc) {
                error(line_no, ".org may not move backwards");
                return;
            }
            _codePad += Addr(*v) - _loc;
            _loc = Addr(*v);
        }
    } else if (dir == ".align") {
        if (auto v = expectInt()) {
            if (!isPowerOf2(std::uint64_t(*v))) {
                error(line_no, ".align expects a power of two");
                return;
            }
            if (inData()) {
                auto &seg = _dataSegs[*_dataSegment];
                const Addr cur = seg.base + Addr(seg.bytes.size());
                const Addr target = Addr(alignUp(cur, std::uint64_t(*v)));
                seg.bytes.resize(seg.bytes.size() + (target - cur), 0);
            } else {
                const Addr target = Addr(alignUp(_loc, std::uint64_t(*v)));
                _codePad += target - _loc;
                _loc = target;
            }
        }
    } else if (dir == ".equ") {
        if (toks[i].kind != TokenKind::Ident) {
            error(line_no, ".equ expects a name");
            return;
        }
        const std::string name = toks[i++].text;
        if (toks[i].kind == TokenKind::Comma)
            ++i;
        if (auto v = expectInt())
            defineSymbolChecked(name, Addr(*v), line_no);
    } else if (dir == ".entry") {
        if (toks[i].kind == TokenKind::Ident) {
            _entrySym = toks[i++].text;
        } else if (auto v = expectInt()) {
            _entryAddr = Addr(*v);
        }
    } else if (dir == ".data") {
        if (auto v = expectInt()) {
            _dataSegs.push_back(DataSeg{Addr(*v), {}});
            _dataSegment = _dataSegs.size() - 1;
        }
    } else if (dir == ".text") {
        _dataSegment.reset();
    } else if (dir == ".word") {
        if (!inData()) {
            error(line_no, ".word only allowed inside .data");
            return;
        }
        while (true) {
            if (toks[i].kind == TokenKind::Int) {
                const auto w = Word(std::uint64_t(toks[i++].value));
                appendDataBytes({std::uint8_t(w & 0xff),
                                 std::uint8_t((w >> 8) & 0xff),
                                 std::uint8_t((w >> 16) & 0xff),
                                 std::uint8_t((w >> 24) & 0xff)});
            } else if (toks[i].kind == TokenKind::Ident) {
                _dataSyms.push_back(PendingDataSym{
                    line_no, *_dataSegment,
                    _dataSegs[*_dataSegment].bytes.size(), toks[i].text});
                ++i;
                appendDataBytes({0, 0, 0, 0});
            } else {
                error(line_no, ".word expects integers or symbols");
                return;
            }
            if (toks[i].kind != TokenKind::Comma)
                break;
            ++i;
        }
    } else if (dir == ".float") {
        if (!inData()) {
            error(line_no, ".float only allowed inside .data");
            return;
        }
        while (true) {
            double v = 0;
            bool neg = false;
            if (toks[i].kind == TokenKind::Minus) {
                neg = true;
                ++i;
            }
            // Accept "int" or "int . int" token sequences.
            if (toks[i].kind != TokenKind::Int) {
                error(line_no, ".float expects numeric literals");
                return;
            }
            // "-0.25" lexes as Int("-0"), whose value loses the
            // sign; recover it from the token text.
            if (!toks[i].text.empty() && toks[i].text[0] == '-')
                neg = true;
            v = std::fabs(double(toks[i].value));
            ++i;
            if (toks[i].kind == TokenKind::Directive) {
                // ".5" style fraction lexed as a directive token.
                const std::string frac = toks[i].text.substr(1);
                const auto fv = parseInt(frac);
                if (!fv) {
                    error(line_no, "bad fraction in .float literal");
                    return;
                }
                double scale = 1;
                for (std::size_t k = 0; k < frac.size(); ++k)
                    scale *= 10;
                v += double(*fv) / scale;
                ++i;
            }
            if (neg)
                v = -v;
            const auto w = std::bit_cast<Word>(float(v));
            appendDataBytes({std::uint8_t(w & 0xff),
                             std::uint8_t((w >> 8) & 0xff),
                             std::uint8_t((w >> 16) & 0xff),
                             std::uint8_t((w >> 24) & 0xff)});
            if (toks[i].kind != TokenKind::Comma)
                break;
            ++i;
        }
    } else if (dir == ".space") {
        if (!inData()) {
            error(line_no, ".space only allowed inside .data");
            return;
        }
        if (auto v = expectInt()) {
            auto &seg = _dataSegs[*_dataSegment];
            seg.bytes.resize(seg.bytes.size() + std::size_t(*v), 0);
        }
    } else {
        error(line_no, "unknown directive '", dir, "'");
    }
}

void
AssemblerImpl::processInstruction(const std::vector<Token> &toks,
                                  std::size_t &i, unsigned line_no)
{
    if (inData()) {
        error(line_no, "instruction inside .data segment");
        return;
    }
    PendingInst pi;
    pi.line = line_no;
    pi.mnemonic = toLower(toks[i].text);
    ++i;
    pi.operands = parseOperands(toks, i, line_no);
    pi.addr = _loc;
    const unsigned size = instSize(pi);
    if (size == 0)
        return; // diagnostics already recorded
    _loc += size;
    _pending.push_back(std::move(pi));
}

std::vector<Operand>
AssemblerImpl::parseOperands(const std::vector<Token> &toks, std::size_t &i,
                             unsigned line_no)
{
    std::vector<Operand> ops;
    if (toks[i].kind == TokenKind::EndOfLine)
        return ops;
    while (true) {
        ops.push_back(parseOperand(toks, i, line_no));
        if (toks[i].kind != TokenKind::Comma)
            break;
        ++i;
    }
    if (toks[i].kind != TokenKind::EndOfLine)
        errorAt(toks[i], "trailing tokens after operands");
    return ops;
}

Operand
AssemblerImpl::parseOperand(const std::vector<Token> &toks, std::size_t &i,
                            unsigned line_no)
{
    Operand op{};
    const Token &t = toks[i];
    switch (t.kind) {
      case TokenKind::Reg:
        op.kind = Operand::Kind::Reg;
        op.reg = int(t.value);
        ++i;
        return op;
      case TokenKind::BReg:
        op.kind = Operand::Kind::BReg;
        op.reg = int(t.value);
        ++i;
        return op;
      case TokenKind::Int:
        op.kind = Operand::Kind::Imm;
        op.imm = t.value;
        ++i;
        return op;
      case TokenKind::Ident:
        op.kind = Operand::Kind::Sym;
        op.sym = t.text;
        ++i;
        return op;
      case TokenKind::LBracket: {
        ++i;
        if (toks[i].kind != TokenKind::Reg) {
            error(line_no, "memory operand must start with a register");
            op.kind = Operand::Kind::MemImm;
            while (toks[i].kind != TokenKind::RBracket &&
                   toks[i].kind != TokenKind::EndOfLine)
                ++i;
            if (toks[i].kind == TokenKind::RBracket)
                ++i;
            return op;
        }
        op.reg = int(toks[i].value);
        ++i;
        if (toks[i].kind == TokenKind::RBracket) {
            ++i;
            op.kind = Operand::Kind::MemImm;
            op.imm = 0;
            return op;
        }
        bool negative = false;
        if (toks[i].kind == TokenKind::Plus) {
            ++i;
        } else if (toks[i].kind == TokenKind::Minus) {
            negative = true;
            ++i;
        } else {
            error(line_no, "expected '+', '-' or ']' in memory operand");
        }
        if (toks[i].kind == TokenKind::Reg) {
            if (negative)
                error(line_no, "indexed addressing cannot be negative");
            op.kind = Operand::Kind::MemReg;
            op.index = int(toks[i].value);
            ++i;
        } else if (toks[i].kind == TokenKind::Int) {
            op.kind = Operand::Kind::MemImm;
            // Negated unsigned: INT64_MIN has no positive twin.
            op.imm = negative ? std::int64_t(0 - std::uint64_t(toks[i].value))
                              : toks[i].value;
            ++i;
        } else if (toks[i].kind == TokenKind::Ident) {
            op.kind = Operand::Kind::MemImm;
            op.sym = toks[i].text;
            if (negative)
                error(line_no, "symbolic displacement cannot be negated");
            ++i;
        } else {
            error(line_no, "bad memory operand");
            op.kind = Operand::Kind::MemImm;
        }
        if (toks[i].kind == TokenKind::RBracket)
            ++i;
        else
            error(line_no, "missing ']' in memory operand");
        return op;
      }
      default:
        errorAt(t, t.kind == TokenKind::EndOfLine
                       ? "missing operand"
                       : "unexpected token '" + t.text + "' in operand");
        // Never step past the end-of-line sentinel (a trailing comma
        // lands here with t already the last token).
        if (t.kind != TokenKind::EndOfLine)
            ++i;
        op.kind = Operand::Kind::Imm;
        return op;
    }
}

unsigned
AssemblerImpl::instSize(const PendingInst &pi) const
{
    if (_mode == isa::FormatMode::Fixed32)
        return 2 * parcelBytes;
    // Compact mode: memory forms pick their size from the operand.
    if (pi.mnemonic == "ld" || pi.mnemonic == "st") {
        if (!pi.operands.empty() &&
            pi.operands[0].kind == Operand::Kind::MemReg)
            return parcelBytes;
        return 2 * parcelBytes;
    }
    const auto op = isa::opcodeFromMnemonic(pi.mnemonic);
    if (!op)
        return 2 * parcelBytes; // error reported during encode
    return isa::opcodeInfo(*op).parcels * parcelBytes;
}

void
AssemblerImpl::encodeAll()
{
    // Resolve pending .word symbol references.
    for (const auto &ps : _dataSyms) {
        const auto v = _program.symbol(ps.sym);
        if (!v) {
            error(ps.line, "undefined symbol '", ps.sym, "'");
            continue;
        }
        auto &bytes = _dataSegs[ps.segment].bytes;
        const Word w = *v;
        bytes[ps.offset] = std::uint8_t(w & 0xff);
        bytes[ps.offset + 1] = std::uint8_t((w >> 8) & 0xff);
        bytes[ps.offset + 2] = std::uint8_t((w >> 16) & 0xff);
        bytes[ps.offset + 3] = std::uint8_t((w >> 24) & 0xff);
    }

    std::size_t pad_remaining = _codePad;
    for (const auto &pi : _pending) {
        // Emit any .org/.align padding owed before this instruction.
        while (_program.nextCodeAddr() < pi.addr && pad_remaining >= 2) {
            _program.appendParcels({0});
            pad_remaining -= 2;
        }
        if (_program.nextCodeAddr() != pi.addr) {
            error(pi.line, "internal layout mismatch");
            continue;
        }
        try {
            const isa::Instruction inst = buildInstruction(pi);
            _program.append(inst);
        } catch (const FatalError &e) {
            // Encoder-level errors (e.g. immediate range checks) know
            // nothing about source positions; attach the line here.
            std::string msg = e.what();
            if (msg.find("line ") == std::string::npos)
                msg = "line " + std::to_string(pi.line) + ": " + msg;
            _errors.push_back(std::move(msg));
        }
    }
}

isa::Instruction
AssemblerImpl::buildInstruction(const PendingInst &pi)
{
    using isa::Opcode;
    isa::Instruction inst;

    auto expect = [&](std::size_t n) {
        if (pi.operands.size() != n)
            fatal("line ", pi.line, ": '", pi.mnemonic, "' expects ", n,
                  " operand(s), got ", pi.operands.size());
    };
    auto reg = [&](std::size_t idx) -> std::uint8_t {
        const auto &op = pi.operands.at(idx);
        if (op.kind != Operand::Kind::Reg)
            fatal("line ", pi.line, ": operand ", idx + 1,
                  " must be a data register");
        return std::uint8_t(op.reg);
    };
    auto breg = [&](std::size_t idx) -> std::uint8_t {
        const auto &op = pi.operands.at(idx);
        if (op.kind != Operand::Kind::BReg)
            fatal("line ", pi.line, ": operand ", idx + 1,
                  " must be a branch register");
        return std::uint8_t(op.reg);
    };
    auto imm = [&](std::size_t idx) -> std::int32_t {
        return std::int32_t(resolveImm(pi.operands.at(idx), pi.line));
    };

    const auto opcode = isa::opcodeFromMnemonic(pi.mnemonic);
    if (!opcode)
        fatal("line ", pi.line, ": unknown mnemonic '", pi.mnemonic, "'");

    switch (*opcode) {
      case Opcode::Add: case Opcode::Sub: case Opcode::And:
      case Opcode::Or: case Opcode::Xor: case Opcode::Sll:
      case Opcode::Srl: case Opcode::Sra:
        expect(3);
        inst.op = *opcode;
        inst.rd = reg(0);
        inst.rs1 = reg(1);
        inst.rs2 = reg(2);
        break;
      case Opcode::Addi: case Opcode::Subi: case Opcode::Andi:
      case Opcode::Ori: case Opcode::Xori: case Opcode::Slli:
      case Opcode::Srli: case Opcode::Srai:
        expect(3);
        inst.op = *opcode;
        inst.rd = reg(0);
        inst.rs1 = reg(1);
        inst.imm = imm(2);
        break;
      case Opcode::Li:
      case Opcode::Lui:
        expect(2);
        inst.op = *opcode;
        inst.rd = reg(0);
        inst.imm = imm(1);
        break;
      case Opcode::Ld:
      case Opcode::LdX:
      case Opcode::St:
      case Opcode::StX: {
        expect(1);
        const auto &mop = pi.operands[0];
        const bool is_load = *opcode == Opcode::Ld || *opcode == Opcode::LdX;
        if (mop.kind == Operand::Kind::MemReg) {
            inst.op = is_load ? Opcode::LdX : Opcode::StX;
            inst.rs1 = std::uint8_t(mop.reg);
            inst.rs2 = std::uint8_t(mop.index);
        } else if (mop.kind == Operand::Kind::MemImm) {
            inst.op = is_load ? Opcode::Ld : Opcode::St;
            inst.rs1 = std::uint8_t(mop.reg);
            inst.imm = std::int32_t(resolveImm(mop, pi.line));
        } else {
            fatal("line ", pi.line, ": '", pi.mnemonic,
                  "' expects a memory operand");
        }
        break;
      }
      case Opcode::Mov: case Opcode::Not: case Opcode::Neg:
        expect(2);
        inst.op = *opcode;
        inst.rd = reg(0);
        inst.rs1 = reg(1);
        break;
      case Opcode::Lbr:
        expect(2);
        inst.op = Opcode::Lbr;
        inst.br = breg(0);
        inst.imm = imm(1);
        break;
      case Opcode::Pbr: {
        if (pi.operands.size() != 3 && pi.operands.size() != 4)
            fatal("line ", pi.line,
                  ": pbr expects 'bN, count, cond[, reg]'");
        inst.op = Opcode::Pbr;
        inst.br = breg(0);
        const auto count = resolveImm(pi.operands[1], pi.line);
        if (count < 0 || count > 7)
            fatal("line ", pi.line, ": pbr delay count must be 0..7");
        inst.count = std::uint8_t(count);
        const auto &cond_op = pi.operands[2];
        if (cond_op.kind != Operand::Kind::Sym)
            fatal("line ", pi.line, ": pbr condition must be a name");
        const auto cond = isa::condFromName(cond_op.sym);
        if (!cond)
            fatal("line ", pi.line, ": unknown condition '", cond_op.sym,
                  "'");
        inst.cond = *cond;
        if (inst.cond != isa::Cond::Always) {
            if (pi.operands.size() != 4)
                fatal("line ", pi.line,
                      ": conditional pbr needs a register operand");
            inst.rs1 = reg(3);
        } else if (pi.operands.size() == 4) {
            inst.rs1 = reg(3);
        }
        break;
      }
      case Opcode::Nop:
      case Opcode::Rsw:
      case Opcode::Halt:
        expect(0);
        inst.op = *opcode;
        break;
      default:
        fatal("line ", pi.line, ": unsupported mnemonic '", pi.mnemonic,
              "'");
    }
    return inst;
}

std::int64_t
AssemblerImpl::resolveImm(const Operand &op, unsigned line)
{
    switch (op.kind) {
      case Operand::Kind::Imm:
        return op.imm;
      case Operand::Kind::MemImm:
        if (op.sym.empty())
            return op.imm;
        [[fallthrough]];
      case Operand::Kind::Sym: {
        const std::string &name = op.sym;
        if (auto v = _program.symbol(name))
            return std::int64_t(*v);
        fatal("line ", line, ": undefined symbol '", name, "'");
      }
      default:
        fatal("line ", line, ": expected an immediate operand");
    }
}

} // namespace

Program
assemble(const std::string &source, isa::FormatMode mode, Addr code_base)
{
    AssemblerImpl impl(mode, code_base);
    return impl.run(source);
}

Program
assembleFile(const std::string &path, isa::FormatMode mode, Addr code_base)
{
    std::ifstream in(path);
    if (!in)
        fatal("cannot open assembly file '", path, "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    return assemble(buf.str(), mode, code_base);
}

} // namespace pipesim::assembler
