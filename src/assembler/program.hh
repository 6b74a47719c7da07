/**
 * @file
 * The assembled program image: encoded instruction bytes, initialised
 * data segments and a symbol table.
 *
 * The simulated machine has a single byte-addressed address space
 * served by the external cache.  By convention code sits at low
 * addresses, data above it, and the memory-mapped FPU at the top
 * (see mem/fpu.hh).
 */

#ifndef PIPESIM_ASSEMBLER_PROGRAM_HH
#define PIPESIM_ASSEMBLER_PROGRAM_HH

#include <cstdint>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/types.hh"
#include "isa/decode.hh"
#include "isa/encode.hh"
#include "isa/instruction.hh"

namespace pipesim
{

/**
 * An assembled (or generated) PIPE program.
 */
class Program
{
  public:
    explicit Program(isa::FormatMode mode = isa::FormatMode::Fixed32,
                     Addr code_base = 0);

    isa::FormatMode mode() const { return _mode; }
    Addr codeBase() const { return _codeBase; }

    /** Address of the next instruction to be appended. */
    Addr nextCodeAddr() const
    {
        return _codeBase + Addr(_code.size());
    }

    /** Total code size in bytes. */
    std::size_t codeSize() const { return _code.size(); }

    /** Append one instruction; @return its address. */
    Addr append(const isa::Instruction &inst);

    /** Append raw parcels (used by the assembler back end). */
    Addr appendParcels(const std::vector<Parcel> &parcels);

    /** Overwrite the already-appended parcel at byte address @p addr. */
    void patchParcel(Addr addr, Parcel value);

    /** The parcel at byte address @p addr (must be parcel aligned). */
    Parcel parcelAt(Addr addr) const;

    /** True if @p addr lies inside the code image. */
    bool inCode(Addr addr) const
    {
        return addr >= _codeBase && addr < _codeBase + _code.size();
    }

    /**
     * Decode the instruction at @p addr.
     * @return nullopt when @p addr is outside the code image or its
     *         parcels do not decode.
     */
    std::optional<isa::Instruction> decodeAt(Addr addr) const;

    /** Raw code bytes (little-endian parcels). */
    const std::vector<std::uint8_t> &code() const { return _code; }

    /** Define symbol @p name = @p value. Redefinition is fatal. */
    void defineSymbol(const std::string &name, Addr value);

    /** Look up a symbol. */
    std::optional<Addr> symbol(const std::string &name) const;

    const std::map<std::string, Addr> &symbols() const { return _symbols; }

    /**
     * Add an initialised data segment (copied into simulated memory
     * before the run starts).
     */
    void addDataSegment(Addr base, std::vector<std::uint8_t> bytes);

    /** Convenience: add a segment of 32-bit words. */
    void addDataWords(Addr base, const std::vector<Word> &words);

    struct DataSegment
    {
        Addr base;
        std::vector<std::uint8_t> bytes;
    };

    const std::vector<DataSegment> &dataSegments() const { return _data; }

    Addr entry() const { return _entry; }
    void setEntry(Addr entry) { _entry = entry; }

  private:
    isa::FormatMode _mode;
    Addr _codeBase;
    Addr _entry;
    std::vector<std::uint8_t> _code;
    std::map<std::string, Addr> _symbols;
    std::vector<DataSegment> _data;
};

} // namespace pipesim

#endif // PIPESIM_ASSEMBLER_PROGRAM_HH
