/**
 * @file
 * The conventional cache of Hill's always-prefetch model: direct
 * mapped with sub-blocked lines.
 *
 * "A cache line is composed of a number of sub-blocks, each block
 * with its own individual valid bit."  A sub-block is one instruction
 * slot; memory requests fetch individual sub-blocks (or a bus-width
 * group of them), so a line may be partially valid in any pattern --
 * unlike the PIPE cache, whose lines stream in from the base.
 */

#ifndef PIPESIM_CACHE_SUBBLOCK_CACHE_HH
#define PIPESIM_CACHE_SUBBLOCK_CACHE_HH

#include <vector>

#include "common/state_io.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace pipesim
{

class SubblockCache
{
  public:
    /**
     * @param size_bytes     Total capacity (power of two).
     * @param line_bytes     Line size (power of two, <= size).
     * @param subblock_bytes Sub-block size (power of two, <= line).
     */
    SubblockCache(unsigned size_bytes, unsigned line_bytes,
                  unsigned subblock_bytes);

    unsigned sizeBytes() const { return _sizeBytes; }
    unsigned lineBytes() const { return _lineBytes; }
    unsigned subblockBytes() const { return _subblockBytes; }
    unsigned subblocksPerLine() const { return _lineBytes / _subblockBytes; }

    Addr lineBase(Addr addr) const { return addr & ~Addr(_lineBytes - 1); }
    Addr
    subblockBase(Addr addr) const
    {
        return addr & ~Addr(_subblockBytes - 1);
    }

    /** @return true if the line containing @p addr has a tag match. */
    bool linePresent(Addr addr) const;

    /** @return true if the sub-block containing @p addr is valid. */
    bool subblockValid(Addr addr) const;

    /** @return true if @p bytes bytes from @p addr are all valid. */
    bool bytesValid(Addr addr, unsigned bytes) const;

    /**
     * Install a tag for the line containing @p addr, clearing every
     * valid bit (evicting any previous occupant of the frame).
     */
    void allocate(Addr addr);

    /**
     * Mark sub-blocks covering [addr, addr+bytes) valid.  The line
     * must be present; @p addr must be sub-block aligned.
     */
    void fill(Addr addr, unsigned bytes);

    void invalidateAll();

    void recordLookup(bool hit);

    void regStats(StatGroup &stats, const std::string &prefix);

    std::uint64_t hits() const { return _hits.value(); }
    std::uint64_t misses() const { return _misses.value(); }

    void saveState(StateWriter &w) const
    {
        w.u32(unsigned(_lines.size()));
        w.u32(subblocksPerLine());
        for (const Line &l : _lines) {
            w.b(l.tagValid);
            w.u32(l.base);
            for (bool v : l.valid)
                w.b(v);
        }
        w.count(_hits.value());
        w.count(_misses.value());
        w.count(_fills.value());
    }

    void restoreState(StateReader &r)
    {
        if (r.u32() != _lines.size() || r.u32() != subblocksPerLine())
            r.fail("subblock cache geometry mismatch");
        for (Line &l : _lines) {
            l.tagValid = r.b();
            l.base = r.u32();
            for (std::size_t i = 0; i < l.valid.size(); ++i)
                l.valid[i] = r.b();
        }
        _hits.set(r.u64());
        _misses.set(r.u64());
        _fills.set(r.u64());
    }

  private:
    struct Line
    {
        bool tagValid = false;
        Addr base = 0;
        std::vector<bool> valid; //!< per sub-block
    };

    const Line &lineFor(Addr addr) const;
    Line &lineFor(Addr addr);

    unsigned _sizeBytes;
    unsigned _lineBytes;
    unsigned _subblockBytes;
    std::vector<Line> _lines;

    Counter _hits;
    Counter _misses;
    Counter _fills;
};

} // namespace pipesim

#endif // PIPESIM_CACHE_SUBBLOCK_CACHE_HH
