/**
 * @file
 * The decoded instruction record passed between the fetch unit and
 * the pipeline, plus operand-usage helpers.
 */

#ifndef PIPESIM_ISA_INSTRUCTION_HH
#define PIPESIM_ISA_INSTRUCTION_HH

#include <array>
#include <cstdint>

#include "common/types.hh"
#include "isa/opcodes.hh"

namespace pipesim::isa
{

/** At most three source registers, held in place (no allocation). */
struct RegList
{
    std::array<std::uint8_t, 3> regs{};
    std::uint8_t count = 0;

    void push_back(std::uint8_t r) { regs[count++] = r; }
    const std::uint8_t *begin() const { return regs.data(); }
    const std::uint8_t *end() const { return regs.data() + count; }
    std::size_t size() const { return count; }
};

/**
 * A fully decoded PIPE instruction.
 *
 * All fields are populated by the decoder; unused fields are zero.
 */
struct Instruction
{
    Opcode op = Opcode::Nop;
    std::uint8_t rd = 0;    //!< destination data register
    std::uint8_t rs1 = 0;   //!< first source data register
    std::uint8_t rs2 = 0;   //!< second source data register
    std::uint8_t br = 0;    //!< branch register (pbr/lbr)
    std::uint8_t count = 0; //!< pbr delay-slot count (0..7)
    Cond cond = Cond::Always;
    std::int32_t imm = 0;   //!< sign-extended 16-bit immediate
    std::uint8_t parcels = 1; //!< encoded size actually occupied

    /** Size of the encoded instruction in bytes. */
    unsigned sizeBytes() const { return parcels * parcelBytes; }

    bool isPbr() const { return op == Opcode::Pbr; }
    bool isLoad() const { return opcodeInfo(op).isLoad; }
    bool isStore() const { return opcodeInfo(op).isStore; }
    bool isHalt() const { return op == Opcode::Halt; }

    /**
     * Data registers read by this instruction, in the order their
     * values are consumed.  Order matters for r7: each appearance
     * pops one Load Data Queue entry.
     */
    RegList
    srcRegs() const
    {
        const OpcodeInfo &info = opcodeInfo(op);
        RegList regs;
        if (info.hasRs1)
            regs.push_back(rs1);
        if (info.hasRs2)
            regs.push_back(rs2);
        // PBR reads the condition register unless the branch is
        // unconditional.
        if (op == Opcode::Pbr && cond != Cond::Always)
            regs.push_back(rs1);
        return regs;
    }

    /** @return true if this instruction writes data register @p r. */
    bool writesReg(std::uint8_t r) const;

    /** Number of r7 source operands (LDQ pops at issue). */
    unsigned ldqPops() const;

    /** @return true if the result is pushed to the SDQ (rd == r7). */
    bool pushesSdq() const;

    bool operator==(const Instruction &other) const = default;
};

/** A decoded instruction tagged with its fetch address. */
struct FetchedInst
{
    Addr pc = 0;
    Instruction inst;
};

} // namespace pipesim::isa

#endif // PIPESIM_ISA_INSTRUCTION_HH
