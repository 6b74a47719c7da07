/**
 * @file
 * Backing store holding the program image and all data.
 *
 * This is the *contents* of the simulated address space; all timing
 * lives in ExternalMemory / MemorySystem.  The memory-mapped FPU
 * range is not backed here (see mem/fpu.hh).  Pages are allocated on
 * their first write, so a machine holds only what its program
 * touches: every sweep worker runs its own executor over one.
 */

#ifndef PIPESIM_MEM_DATA_MEMORY_HH
#define PIPESIM_MEM_DATA_MEMORY_HH

#include <array>
#include <cstdint>
#include <memory>
#include <vector>

#include "common/state_io.hh"
#include "common/types.hh"

namespace pipesim
{

class Program;

/** Byte-addressable backing store with 32-bit word accessors. */
class DataMemory
{
  public:
    /** @param size_bytes Size of the address space to back. */
    explicit DataMemory(std::size_t size_bytes = defaultSize);

    /** Copy a program's code image and data segments into memory. */
    void loadProgram(const Program &program);

    Word readWord(Addr addr) const;
    void writeWord(Addr addr, Word value);

    std::uint8_t readByte(Addr addr) const;
    void writeByte(Addr addr, std::uint8_t value);

    std::size_t size() const { return _size; }

    /** Default backing size: 1 MiB, plenty for the workloads. */
    static constexpr std::size_t defaultSize = 1u << 20;

    /** Dirty-page tracking granularity for checkpoints. */
    static constexpr std::size_t pageBytes = 4096;

    /** Pages written since the last loadProgram(). */
    std::size_t dirtyPageCount() const;

    /**
     * Serialize the pages written since loadProgram().  Together with
     * a fresh loadProgram() on the restore side this reproduces the
     * full memory image at a fraction of the 1 MiB footprint (the
     * workloads touch a handful of pages).
     */
    void saveDirtyPages(StateWriter &w) const;

    /**
     * Apply a dirty-page set saved by saveDirtyPages().  The caller
     * must have called loadProgram() with the same program first; the
     * applied pages are marked dirty so a re-save round-trips.
     */
    void restoreDirtyPages(StateReader &r);

  private:
    using Page = std::array<std::uint8_t, pageBytes>;

    void checkRange(Addr addr, unsigned bytes) const;
    void markDirty(Addr addr, unsigned bytes);

    /** The byte at @p addr: 0 on a page never written. */
    std::uint8_t at(Addr addr) const;

    /** The byte at @p addr, allocating its page. */
    std::uint8_t &slot(Addr addr);

    std::size_t _size;
    std::vector<std::unique_ptr<Page>> _pages; //!< null: all zero
    std::vector<bool> _dirty; //!< one bit per pageBytes page
};

} // namespace pipesim

#endif // PIPESIM_MEM_DATA_MEMORY_HH
