#include "isa/decode.hh"

#include "common/bitutil.hh"
#include "common/log.hh"
#include "isa/fields.hh"

namespace pipesim::isa
{

namespace
{

Opcode
aluRROpcode(unsigned func)
{
    static constexpr Opcode table[8] = {
        Opcode::Add, Opcode::Sub, Opcode::And, Opcode::Or,
        Opcode::Xor, Opcode::Sll, Opcode::Srl, Opcode::Sra,
    };
    return table[func & 7];
}

Opcode
aluRIOpcode(unsigned func)
{
    static constexpr Opcode table[8] = {
        Opcode::Addi, Opcode::Subi, Opcode::Andi, Opcode::Ori,
        Opcode::Xori, Opcode::Slli, Opcode::Srli, Opcode::Srai,
    };
    return table[func & 7];
}

} // namespace

std::optional<Instruction>
tryDecode(Parcel p1, Parcel p2, FormatMode mode)
{
    Instruction inst;
    const unsigned a = fieldA(p1);
    const unsigned b = fieldB(p1);
    const unsigned c = fieldC(p1);
    const unsigned d = fieldD(p1);
    const auto imm = std::int32_t(sext(p2, 16));

    switch (Major(majorOf(p1))) {
      case Major::AluRR:
        inst.op = aluRROpcode(a);
        inst.rd = std::uint8_t(b);
        inst.rs1 = std::uint8_t(c);
        inst.rs2 = std::uint8_t(d);
        break;
      case Major::AluRI:
        inst.op = aluRIOpcode(a);
        inst.rd = std::uint8_t(b);
        inst.rs1 = std::uint8_t(c);
        inst.imm = imm;
        break;
      case Major::LiGrp:
        inst.op = a == 0 ? Opcode::Li : Opcode::Lui;
        inst.rd = std::uint8_t(b);
        inst.imm = imm;
        break;
      case Major::Ld:
        if (a == 0) {
            inst.op = Opcode::Ld;
            inst.rs1 = std::uint8_t(c);
            inst.imm = imm;
        } else {
            inst.op = Opcode::LdX;
            inst.rs1 = std::uint8_t(c);
            inst.rs2 = std::uint8_t(d);
        }
        break;
      case Major::St:
        if (a == 0) {
            inst.op = Opcode::St;
            inst.rs1 = std::uint8_t(c);
            inst.imm = imm;
        } else {
            inst.op = Opcode::StX;
            inst.rs1 = std::uint8_t(c);
            inst.rs2 = std::uint8_t(d);
        }
        break;
      case Major::Unary:
        switch (a) {
          case 0: inst.op = Opcode::Mov; break;
          case 1: inst.op = Opcode::Not; break;
          case 2: inst.op = Opcode::Neg; break;
          default: return std::nullopt;
        }
        inst.rd = std::uint8_t(b);
        inst.rs1 = std::uint8_t(c);
        break;
      case Major::Lbr:
        inst.op = Opcode::Lbr;
        inst.br = std::uint8_t(a);
        // Branch targets are absolute byte addresses; decode the
        // immediate as unsigned so programs may span 64 KiB.
        inst.imm = std::int32_t(p2);
        break;
      case Major::Misc:
        switch (a) {
          case 0: inst.op = Opcode::Nop; break;
          case 1: inst.op = Opcode::Rsw; break;
          case 2: inst.op = Opcode::Halt; break;
          default: return std::nullopt;
        }
        break;
      case Major::Pbr:
        inst.op = Opcode::Pbr;
        inst.br = std::uint8_t(a);
        inst.cond = Cond(b);
        inst.rs1 = std::uint8_t(c);
        inst.count = std::uint8_t(d);
        break;
      default:
        return std::nullopt;
    }

    inst.parcels = std::uint8_t(instParcels(p1, mode));
    return inst;
}

Instruction
decode(Parcel p1, Parcel p2, FormatMode mode)
{
    if (const auto inst = tryDecode(p1, p2, mode))
        return *inst;
    panic("undecodable parcel 0x", std::hex, p1);
}

} // namespace pipesim::isa
