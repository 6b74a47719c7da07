#include <gtest/gtest.h>

#include "common/log.hh"

#include "isa/decode.hh"
#include "isa/encode.hh"
#include "isa/fields.hh"
#include "isa/opcodes.hh"

using namespace pipesim;
using namespace pipesim::isa;

namespace
{

Instruction
make(Opcode op)
{
    Instruction i;
    i.op = op;
    return i;
}

/** Encode then decode under @p mode; return the decoded form. */
Instruction
roundTrip(const Instruction &inst, FormatMode mode)
{
    const auto parcels = encode(inst, mode);
    const Parcel p2 = parcels.size() > 1 ? parcels[1] : Parcel(0);
    return decode(parcels[0], p2, mode);
}

} // namespace

TEST(OpcodeInfo, MnemonicLookupIsInverse)
{
    for (unsigned i = 0; i < unsigned(Opcode::NumOpcodes); ++i) {
        const Opcode op = Opcode(i);
        const auto back = opcodeFromMnemonic(mnemonic(op));
        ASSERT_TRUE(back.has_value()) << mnemonic(op);
        EXPECT_EQ(*back, op);
    }
}

TEST(OpcodeInfo, MnemonicLookupCaseInsensitive)
{
    EXPECT_EQ(opcodeFromMnemonic("ADD"), Opcode::Add);
    EXPECT_EQ(opcodeFromMnemonic("Pbr"), Opcode::Pbr);
    EXPECT_FALSE(opcodeFromMnemonic("bogus"));
}

TEST(OpcodeInfo, TraitsAreConsistent)
{
    EXPECT_TRUE(opcodeInfo(Opcode::Ld).isLoad);
    EXPECT_TRUE(opcodeInfo(Opcode::LdX).isLoad);
    EXPECT_TRUE(opcodeInfo(Opcode::St).isStore);
    EXPECT_TRUE(opcodeInfo(Opcode::StX).isStore);
    EXPECT_TRUE(opcodeInfo(Opcode::Pbr).isBranch);
    EXPECT_FALSE(opcodeInfo(Opcode::Lbr).isBranch);
    EXPECT_EQ(opcodeInfo(Opcode::Add).parcels, 1u);
    EXPECT_EQ(opcodeInfo(Opcode::Addi).parcels, 2u);
    EXPECT_EQ(opcodeInfo(Opcode::Lbr).parcels, 2u);
}

TEST(CondNames, RoundTrip)
{
    for (unsigned i = 0; i < 7; ++i) {
        const Cond c = Cond(i);
        const auto back = condFromName(condName(c));
        ASSERT_TRUE(back.has_value());
        EXPECT_EQ(*back, c);
    }
    EXPECT_FALSE(condFromName("never"));
}

TEST(Fields, BranchBitIdentifiesPbrOnly)
{
    Instruction pbr = make(Opcode::Pbr);
    pbr.br = 3;
    pbr.count = 5;
    pbr.cond = Cond::Nez;
    pbr.rs1 = 2;
    const auto pbr_parcels = encode(pbr, FormatMode::Compact);
    EXPECT_TRUE(parcelIsBranch(pbr_parcels[0]));

    // Every other opcode must not set the branch bit.
    for (unsigned i = 0; i < unsigned(Opcode::NumOpcodes); ++i) {
        const Opcode op = Opcode(i);
        if (op == Opcode::Pbr)
            continue;
        Instruction inst = make(op);
        const auto parcels = encode(inst, FormatMode::Compact);
        EXPECT_FALSE(parcelIsBranch(parcels[0])) << mnemonic(op);
    }
}

TEST(EncodeDecode, AluRegisterForms)
{
    for (Opcode op : {Opcode::Add, Opcode::Sub, Opcode::And, Opcode::Or,
                      Opcode::Xor, Opcode::Sll, Opcode::Srl, Opcode::Sra}) {
        Instruction inst = make(op);
        inst.rd = 3;
        inst.rs1 = 5;
        inst.rs2 = 6;
        for (FormatMode mode :
             {FormatMode::Compact, FormatMode::Fixed32}) {
            const Instruction out = roundTrip(inst, mode);
            EXPECT_EQ(out.op, op);
            EXPECT_EQ(out.rd, 3);
            EXPECT_EQ(out.rs1, 5);
            EXPECT_EQ(out.rs2, 6);
        }
    }
}

TEST(EncodeDecode, AluImmediateForms)
{
    for (Opcode op :
         {Opcode::Addi, Opcode::Subi, Opcode::Andi, Opcode::Ori,
          Opcode::Xori, Opcode::Slli, Opcode::Srli, Opcode::Srai}) {
        Instruction inst = make(op);
        inst.rd = 1;
        inst.rs1 = 2;
        inst.imm = -1234;
        const Instruction out = roundTrip(inst, FormatMode::Compact);
        EXPECT_EQ(out.op, op);
        EXPECT_EQ(out.imm, -1234);
        EXPECT_EQ(out.parcels, 2u);
    }
}

TEST(EncodeDecode, ImmediateBoundaries)
{
    Instruction inst = make(Opcode::Li);
    inst.rd = 4;
    for (int imm : {-32768, -1, 0, 1, 32767}) {
        inst.imm = imm;
        EXPECT_EQ(roundTrip(inst, FormatMode::Compact).imm, imm) << imm;
    }
}

TEST(EncodeDecode, ImmediateOutOfRangeIsFatal)
{
    Instruction inst = make(Opcode::Li);
    inst.imm = 70000;
    EXPECT_THROW(encode(inst, FormatMode::Compact), FatalError);
    inst.imm = -32769;
    EXPECT_THROW(encode(inst, FormatMode::Compact), FatalError);
}

TEST(EncodeDecode, MemoryForms)
{
    Instruction ld = make(Opcode::Ld);
    ld.rs1 = 2;
    ld.imm = 100;
    Instruction out = roundTrip(ld, FormatMode::Compact);
    EXPECT_EQ(out.op, Opcode::Ld);
    EXPECT_EQ(out.rs1, 2);
    EXPECT_EQ(out.imm, 100);
    EXPECT_EQ(out.parcels, 2u);

    Instruction ldx = make(Opcode::LdX);
    ldx.rs1 = 1;
    ldx.rs2 = 3;
    out = roundTrip(ldx, FormatMode::Compact);
    EXPECT_EQ(out.op, Opcode::LdX);
    EXPECT_EQ(out.parcels, 1u);

    Instruction st = make(Opcode::St);
    st.rs1 = 6;
    st.imm = -8;
    out = roundTrip(st, FormatMode::Compact);
    EXPECT_EQ(out.op, Opcode::St);
    EXPECT_EQ(out.imm, -8);

    Instruction stx = make(Opcode::StX);
    stx.rs1 = 6;
    stx.rs2 = 0;
    out = roundTrip(stx, FormatMode::Compact);
    EXPECT_EQ(out.op, Opcode::StX);
}

TEST(EncodeDecode, PbrCarriesAllFields)
{
    Instruction pbr = make(Opcode::Pbr);
    pbr.br = 5;
    pbr.count = 7;
    pbr.cond = Cond::Lez;
    pbr.rs1 = 4;
    for (FormatMode mode : {FormatMode::Compact, FormatMode::Fixed32}) {
        const Instruction out = roundTrip(pbr, mode);
        EXPECT_EQ(out.op, Opcode::Pbr);
        EXPECT_EQ(out.br, 5);
        EXPECT_EQ(out.count, 7);
        EXPECT_EQ(out.cond, Cond::Lez);
        EXPECT_EQ(out.rs1, 4);
    }
}

TEST(EncodeDecode, LbrTargetIsUnsigned16)
{
    Instruction lbr = make(Opcode::Lbr);
    lbr.br = 2;
    lbr.imm = 0xfffe; // high addresses must not sign-extend
    const Instruction out = roundTrip(lbr, FormatMode::Compact);
    EXPECT_EQ(out.op, Opcode::Lbr);
    EXPECT_EQ(out.br, 2);
    EXPECT_EQ(out.imm, 0xfffe);
}

TEST(EncodeDecode, Fixed32PadsSingleParcelForms)
{
    Instruction add = make(Opcode::Add);
    const auto compact = encode(add, FormatMode::Compact);
    const auto fixed = encode(add, FormatMode::Fixed32);
    EXPECT_EQ(compact.size(), 1u);
    EXPECT_EQ(fixed.size(), 2u);
    EXPECT_EQ(fixed[1], 0u);
    EXPECT_EQ(roundTrip(add, FormatMode::Fixed32).parcels, 2u);
    EXPECT_EQ(roundTrip(add, FormatMode::Compact).parcels, 1u);
}

TEST(EncodeDecode, InstParcelsMatchesEncodedSize)
{
    for (unsigned i = 0; i < unsigned(Opcode::NumOpcodes); ++i) {
        Instruction inst = make(Opcode(i));
        for (FormatMode mode :
             {FormatMode::Compact, FormatMode::Fixed32}) {
            const auto parcels = encode(inst, mode);
            EXPECT_EQ(instParcels(parcels[0], mode), parcels.size())
                << mnemonic(Opcode(i));
        }
    }
}

TEST(InstructionHelpers, SrcRegsAndQueueUse)
{
    Instruction add = make(Opcode::Add);
    add.rd = 7;
    add.rs1 = 7;
    add.rs2 = 2;
    const RegList src = add.srcRegs();
    EXPECT_EQ(std::vector<std::uint8_t>(src.begin(), src.end()),
              (std::vector<std::uint8_t>{7, 2}));
    EXPECT_EQ(add.ldqPops(), 1u);
    EXPECT_TRUE(add.pushesSdq());
    EXPECT_TRUE(add.writesReg(7));
    EXPECT_FALSE(add.writesReg(3));

    Instruction mv = make(Opcode::Mov);
    mv.rd = 7;
    mv.rs1 = 7;
    EXPECT_EQ(mv.ldqPops(), 1u);
    EXPECT_TRUE(mv.pushesSdq());

    Instruction pbr = make(Opcode::Pbr);
    pbr.cond = Cond::Nez;
    pbr.rs1 = 7;
    EXPECT_EQ(pbr.ldqPops(), 1u);
    pbr.cond = Cond::Always;
    EXPECT_EQ(pbr.ldqPops(), 0u);

    Instruction ld = make(Opcode::Ld);
    ld.rs1 = 1;
    EXPECT_TRUE(ld.isLoad());
    EXPECT_FALSE(ld.pushesSdq());
    EXPECT_EQ(ld.ldqPops(), 0u);
}

TEST(InstructionHelpers, SizeBytes)
{
    Instruction add = make(Opcode::Add);
    add.parcels = 1;
    EXPECT_EQ(add.sizeBytes(), 2u);
    add.parcels = 2;
    EXPECT_EQ(add.sizeBytes(), 4u);
}
