#include "isa/opcodes.hh"

#include "common/strutil.hh"

namespace pipesim::isa
{

namespace
{

constexpr std::array<std::string_view, 7> condNames = {
    "always", "eqz", "nez", "ltz", "gez", "gtz", "lez",
};

} // namespace

std::string_view
mnemonic(Opcode op)
{
    return opcodeInfo(op).mnemonic;
}

std::optional<Opcode>
opcodeFromMnemonic(std::string_view name)
{
    for (unsigned i = 0; i < detail::infoTable.size(); ++i)
        if (iequals(detail::infoTable[i].mnemonic, name))
            return Opcode(i);
    return std::nullopt;
}

std::string_view
condName(Cond c)
{
    const auto idx = unsigned(c);
    PIPESIM_ASSERT(idx < condNames.size(), "bad condition code ", idx);
    return condNames[idx];
}

std::optional<Cond>
condFromName(std::string_view name)
{
    for (unsigned i = 0; i < condNames.size(); ++i)
        if (iequals(condNames[i], name))
            return Cond(i);
    return std::nullopt;
}

} // namespace pipesim::isa
