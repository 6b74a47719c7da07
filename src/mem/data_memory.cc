#include "mem/data_memory.hh"

#include <algorithm>

#include "assembler/program.hh"
#include "common/log.hh"

namespace pipesim
{

DataMemory::DataMemory(std::size_t size_bytes)
    : _size(size_bytes), _pages((size_bytes + pageBytes - 1) / pageBytes),
      _dirty(_pages.size(), false)
{
}

std::uint8_t
DataMemory::at(Addr addr) const
{
    const Page *page = _pages[addr / pageBytes].get();
    return page ? (*page)[addr % pageBytes] : 0;
}

std::uint8_t &
DataMemory::slot(Addr addr)
{
    std::unique_ptr<Page> &page = _pages[addr / pageBytes];
    if (!page)
        page = std::make_unique<Page>();
    return (*page)[addr % pageBytes];
}

void
DataMemory::loadProgram(const Program &program)
{
    const auto &code = program.code();
    checkRange(program.codeBase(), unsigned(code.size()));
    for (std::size_t i = 0; i < code.size(); ++i)
        slot(Addr(program.codeBase() + i)) = code[i];
    for (const auto &seg : program.dataSegments()) {
        checkRange(seg.base, unsigned(seg.bytes.size()));
        for (std::size_t i = 0; i < seg.bytes.size(); ++i)
            slot(Addr(seg.base + i)) = seg.bytes[i];
    }
    // The image is the checkpoint baseline: everything written after
    // this point is what saveDirtyPages() captures.
    std::fill(_dirty.begin(), _dirty.end(), false);
}

Word
DataMemory::readWord(Addr addr) const
{
    checkRange(addr, wordBytes);
    return Word(at(addr)) | (Word(at(addr + 1)) << 8) |
           (Word(at(addr + 2)) << 16) | (Word(at(addr + 3)) << 24);
}

void
DataMemory::writeWord(Addr addr, Word value)
{
    checkRange(addr, wordBytes);
    markDirty(addr, wordBytes);
    for (unsigned i = 0; i < wordBytes; ++i)
        slot(addr + i) = std::uint8_t(value >> (8 * i));
}

std::uint8_t
DataMemory::readByte(Addr addr) const
{
    checkRange(addr, 1);
    return at(addr);
}

void
DataMemory::writeByte(Addr addr, std::uint8_t value)
{
    checkRange(addr, 1);
    markDirty(addr, 1);
    slot(addr) = value;
}

void
DataMemory::markDirty(Addr addr, unsigned bytes)
{
    const std::size_t first = addr / pageBytes;
    const std::size_t last = (addr + bytes - 1) / pageBytes;
    for (std::size_t p = first; p <= last; ++p)
        _dirty[p] = true;
}

std::size_t
DataMemory::dirtyPageCount() const
{
    std::size_t n = 0;
    for (bool d : _dirty)
        n += d ? 1 : 0;
    return n;
}

void
DataMemory::saveDirtyPages(StateWriter &w) const
{
    static const Page zero{};
    w.u64(_size);
    w.u32(std::uint32_t(dirtyPageCount()));
    for (std::size_t p = 0; p < _dirty.size(); ++p) {
        if (!_dirty[p])
            continue;
        w.u32(std::uint32_t(p));
        const Page *page = _pages[p] ? _pages[p].get() : &zero;
        w.bytes(page->data(), std::min(pageBytes, _size - p * pageBytes));
    }
}

void
DataMemory::restoreDirtyPages(StateReader &r)
{
    if (r.u64() != _size)
        r.fail("data memory size mismatch");
    const std::uint32_t pages = r.u32();
    for (std::uint32_t i = 0; i < pages; ++i) {
        const std::uint32_t p = r.u32();
        if (p >= _dirty.size())
            r.fail("dirty page index ", p, " out of range");
        const std::size_t base = std::size_t(p) * pageBytes;
        r.bytes(&slot(Addr(base)), std::min(pageBytes, _size - base));
        _dirty[p] = true;
    }
}

void
DataMemory::checkRange(Addr addr, unsigned bytes) const
{
    if (std::size_t(addr) + bytes > _size)
        panic("memory access [", addr, ", +", bytes, ") out of range (",
              _size, " bytes backed)");
}

} // namespace pipesim
