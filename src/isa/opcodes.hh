/**
 * @file
 * Flattened opcode space of our PIPE rendition, with a static trait
 * table describing each opcode's format and operand usage.
 */

#ifndef PIPESIM_ISA_OPCODES_HH
#define PIPESIM_ISA_OPCODES_HH

#include <array>
#include <optional>
#include <string_view>

#include "common/log.hh"

namespace pipesim::isa
{

/** Every executable operation, across all encodings. */
enum class Opcode : unsigned char
{
    // Register-register ALU (1 parcel).
    Add, Sub, And, Or, Xor, Sll, Srl, Sra,
    // Register-immediate ALU (2 parcels).
    Addi, Subi, Andi, Ori, Xori, Slli, Srli, Srai,
    // Immediates (2 parcels).
    Li, Lui,
    // Memory address generation.
    Ld,   //!< ld [rs1 + imm16]  (2 parcels) -> LAQ
    LdX,  //!< ldx [rs1 + rs2]   (1 parcel)  -> LAQ
    St,   //!< st [rs1 + imm16]  (2 parcels) -> SAQ
    StX,  //!< stx [rs1 + rs2]   (1 parcel)  -> SAQ
    // Control.
    Pbr,  //!< prepare-to-branch (1 parcel)
    Lbr,  //!< load branch register with absolute address (2 parcels)
    // Unary (1 parcel).
    Mov, Not, Neg,
    // Misc (1 parcel).
    Nop, Rsw, Halt,

    NumOpcodes,
};

/** PBR condition codes (3-bit field). */
enum class Cond : unsigned char
{
    Always = 0,
    Eqz    = 1,  //!< rs == 0
    Nez    = 2,  //!< rs != 0
    Ltz    = 3,  //!< rs <  0 (signed)
    Gez    = 4,  //!< rs >= 0 (signed)
    Gtz    = 5,  //!< rs >  0 (signed)
    Lez    = 6,  //!< rs <= 0 (signed)
};

/** Static description of one opcode. */
struct OpcodeInfo
{
    std::string_view mnemonic;
    unsigned parcels;    //!< natural (compact) encoding size, 1 or 2
    bool hasRd;          //!< writes a data register (field b)
    bool hasRs1;         //!< reads data register in field c
    bool hasRs2;         //!< reads data register in field d
    bool hasImm;         //!< carries a 16-bit immediate parcel
    bool isLoad;         //!< pushes the Load Address Queue
    bool isStore;        //!< pushes the Store Address Queue
    bool isBranch;       //!< is the prepare-to-branch instruction
};

namespace detail
{

inline constexpr std::array<OpcodeInfo, unsigned(Opcode::NumOpcodes)>
    infoTable = {{
    // mnemonic  parcels rd    rs1    rs2    imm    load   store  branch
    {"add",      1,      true,  true,  true,  false, false, false, false},
    {"sub",      1,      true,  true,  true,  false, false, false, false},
    {"and",      1,      true,  true,  true,  false, false, false, false},
    {"or",       1,      true,  true,  true,  false, false, false, false},
    {"xor",      1,      true,  true,  true,  false, false, false, false},
    {"sll",      1,      true,  true,  true,  false, false, false, false},
    {"srl",      1,      true,  true,  true,  false, false, false, false},
    {"sra",      1,      true,  true,  true,  false, false, false, false},
    {"addi",     2,      true,  true,  false, true,  false, false, false},
    {"subi",     2,      true,  true,  false, true,  false, false, false},
    {"andi",     2,      true,  true,  false, true,  false, false, false},
    {"ori",      2,      true,  true,  false, true,  false, false, false},
    {"xori",     2,      true,  true,  false, true,  false, false, false},
    {"slli",     2,      true,  true,  false, true,  false, false, false},
    {"srli",     2,      true,  true,  false, true,  false, false, false},
    {"srai",     2,      true,  true,  false, true,  false, false, false},
    {"li",       2,      true,  false, false, true,  false, false, false},
    {"lui",      2,      true,  false, false, true,  false, false, false},
    {"ld",       2,      false, true,  false, true,  true,  false, false},
    {"ldx",      1,      false, true,  true,  false, true,  false, false},
    {"st",       2,      false, true,  false, true,  false, true,  false},
    {"stx",      1,      false, true,  true,  false, false, true,  false},
    {"pbr",      1,      false, false, false, false, false, false, true},
    {"lbr",      2,      false, false, false, true,  false, false, false},
    {"mov",      1,      true,  true,  false, false, false, false, false},
    {"not",      1,      true,  true,  false, false, false, false, false},
    {"neg",      1,      true,  true,  false, false, false, false, false},
    {"nop",      1,      false, false, false, false, false, false, false},
    {"rsw",      1,      false, false, false, false, false, false, false},
    {"halt",     1,      false, false, false, false, false, false, false},
}};

} // namespace detail

/**
 * @return the trait record for @p op.  Inline: the pipeline and the
 * fetch units consult it for every instruction they handle.
 */
inline const OpcodeInfo &
opcodeInfo(Opcode op)
{
    const auto idx = unsigned(op);
    PIPESIM_ASSERT(idx < detail::infoTable.size(), "bad opcode ", idx);
    return detail::infoTable[idx];
}

/** @return the mnemonic for @p op. */
std::string_view mnemonic(Opcode op);

/** @return the opcode whose mnemonic is @p name (case-insensitive). */
std::optional<Opcode> opcodeFromMnemonic(std::string_view name);

/** @return the assembly name of a condition code ("nez", ...). */
std::string_view condName(Cond c);

/** @return the condition whose name is @p name (case-insensitive). */
std::optional<Cond> condFromName(std::string_view name);

} // namespace pipesim::isa

#endif // PIPESIM_ISA_OPCODES_HH
