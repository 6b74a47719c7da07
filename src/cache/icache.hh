/**
 * @file
 * The PIPE on-chip instruction cache: direct mapped, line oriented.
 *
 * The real PIPE cache is sixteen 4-word lines (128 bytes); here both
 * the total size and the line size are configurable (paper simulation
 * parameters 2 and 3).  Lines fill from off-chip a bus-beat at a
 * time, so a line tracks how many of its bytes have arrived; fills
 * always stream from the line base.
 *
 * Only presence/validity is modelled -- instruction bytes are read
 * from the program image, which is sound because code is read-only.
 */

#ifndef PIPESIM_CACHE_ICACHE_HH
#define PIPESIM_CACHE_ICACHE_HH

#include <vector>

#include "common/state_io.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace pipesim
{

class InstructionCache
{
  public:
    /**
     * @param size_bytes Total capacity; must be a power of two and a
     *                   multiple of @p line_bytes.
     * @param line_bytes Line size; power of two.
     */
    InstructionCache(unsigned size_bytes, unsigned line_bytes);

    unsigned sizeBytes() const { return _sizeBytes; }
    unsigned lineBytes() const { return _lineBytes; }
    unsigned numLines() const { return unsigned(_lines.size()); }

    /** The line-aligned base of @p addr. */
    Addr lineBase(Addr addr) const { return addr & ~Addr(_lineBytes - 1); }

    /** @return true if the line containing @p addr has a tag match. */
    bool linePresent(Addr addr) const;

    /**
     * @return true if the @p bytes bytes starting at @p addr are all
     *         resident (tag match and arrived).
     */
    bool bytesValid(Addr addr, unsigned bytes) const;

    /** @return true if the full line containing @p addr is resident. */
    bool lineValid(Addr addr) const;

    /**
     * Install a tag for the line containing @p addr with no bytes
     * valid yet (a fill is about to stream in).  Evicts the previous
     * occupant of the frame.
     */
    void allocate(Addr addr);

    /**
     * Mark @p bytes bytes at @p addr as arrived.  The line must be
     * allocated and fills must stream in order from the line base.
     */
    void fill(Addr addr, unsigned bytes);

    /** Drop every line (the paper's per-loop cold starts). */
    void invalidateAll();

    /** Record a lookup outcome (for the miss-rate statistics). */
    void recordLookup(bool hit);

    void regStats(StatGroup &stats, const std::string &prefix);

    std::uint64_t hits() const { return _hits.value(); }
    std::uint64_t misses() const { return _misses.value(); }

    void saveState(StateWriter &w) const
    {
        w.u32(unsigned(_lines.size()));
        for (const Line &l : _lines) {
            w.b(l.tagValid);
            w.u32(l.base);
            w.u32(l.validBytes);
        }
        w.count(_hits.value());
        w.count(_misses.value());
        w.count(_fills.value());
    }

    void restoreState(StateReader &r)
    {
        if (r.u32() != _lines.size())
            r.fail("icache geometry mismatch");
        for (Line &l : _lines) {
            l.tagValid = r.b();
            l.base = r.u32();
            l.validBytes = r.u32();
        }
        _hits.set(r.u64());
        _misses.set(r.u64());
        _fills.set(r.u64());
    }

  private:
    struct Line
    {
        bool tagValid = false;
        Addr base = 0;       //!< line-aligned address of the occupant
        unsigned validBytes = 0;
    };

    const Line &lineFor(Addr addr) const;
    Line &lineFor(Addr addr);

    unsigned _sizeBytes;
    unsigned _lineBytes;
    std::vector<Line> _lines;

    Counter _hits;
    Counter _misses;
    Counter _fills;
};

} // namespace pipesim

#endif // PIPESIM_CACHE_ICACHE_HH
