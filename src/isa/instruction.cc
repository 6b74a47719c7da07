#include "isa/instruction.hh"

#include "isa/fields.hh"

namespace pipesim::isa
{

bool
Instruction::writesReg(std::uint8_t r) const
{
    const OpcodeInfo &info = opcodeInfo(op);
    return info.hasRd && rd == r;
}

unsigned
Instruction::ldqPops() const
{
    unsigned n = 0;
    for (std::uint8_t r : srcRegs())
        if (r == queueReg)
            ++n;
    return n;
}

bool
Instruction::pushesSdq() const
{
    const OpcodeInfo &info = opcodeInfo(op);
    return info.hasRd && rd == queueReg;
}

} // namespace pipesim::isa
