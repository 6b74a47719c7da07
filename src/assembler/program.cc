#include "assembler/program.hh"

#include "common/log.hh"

namespace pipesim
{

Program::Program(isa::FormatMode mode, Addr code_base)
    : _mode(mode), _codeBase(code_base), _entry(code_base)
{
    PIPESIM_ASSERT(code_base % parcelBytes == 0,
                   "code base must be parcel aligned");
}

Addr
Program::append(const isa::Instruction &inst)
{
    return appendParcels(isa::encode(inst, _mode));
}

Addr
Program::appendParcels(const std::vector<Parcel> &parcels)
{
    const Addr at = nextCodeAddr();
    for (Parcel p : parcels) {
        _code.push_back(std::uint8_t(p & 0xff));
        _code.push_back(std::uint8_t(p >> 8));
    }
    return at;
}

void
Program::patchParcel(Addr addr, Parcel value)
{
    PIPESIM_ASSERT(inCode(addr) && addr % parcelBytes == 0,
                   "patch address out of range");
    const std::size_t off = addr - _codeBase;
    _code[off] = std::uint8_t(value & 0xff);
    _code[off + 1] = std::uint8_t(value >> 8);
}

Parcel
Program::parcelAt(Addr addr) const
{
    PIPESIM_ASSERT(addr % parcelBytes == 0,
                   "unaligned parcel address ", addr);
    if (!inCode(addr))
        return 0;
    const std::size_t off = addr - _codeBase;
    return Parcel(_code[off] | (Parcel(_code[off + 1]) << 8));
}

std::optional<isa::Instruction>
Program::decodeAt(Addr addr) const
{
    if (!inCode(addr))
        return std::nullopt;
    const Parcel p1 = parcelAt(addr);
    const unsigned parcels = isa::instParcels(p1, _mode);
    const Parcel p2 = parcels > 1 ? parcelAt(addr + parcelBytes) : Parcel(0);
    return isa::tryDecode(p1, p2, _mode);
}

void
Program::defineSymbol(const std::string &name, Addr value)
{
    if (_symbols.count(name))
        fatal("symbol '", name, "' redefined");
    _symbols.emplace(name, value);
}

std::optional<Addr>
Program::symbol(const std::string &name) const
{
    auto it = _symbols.find(name);
    if (it == _symbols.end())
        return std::nullopt;
    return it->second;
}

void
Program::addDataSegment(Addr base, std::vector<std::uint8_t> bytes)
{
    _data.push_back(DataSegment{base, std::move(bytes)});
}

void
Program::addDataWords(Addr base, const std::vector<Word> &words)
{
    std::vector<std::uint8_t> bytes;
    bytes.reserve(words.size() * wordBytes);
    for (Word w : words) {
        bytes.push_back(std::uint8_t(w & 0xff));
        bytes.push_back(std::uint8_t((w >> 8) & 0xff));
        bytes.push_back(std::uint8_t((w >> 16) & 0xff));
        bytes.push_back(std::uint8_t((w >> 24) & 0xff));
    }
    addDataSegment(base, std::move(bytes));
}

} // namespace pipesim
