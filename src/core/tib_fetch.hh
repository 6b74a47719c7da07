/**
 * @file
 * Target Instruction Buffer (TIB) fetch strategy — the third approach
 * discussed in the paper's section 2.1 (used by the AMD 29000 and
 * studied by Rau/Rossman, Grohoski/Patel and Hill):
 *
 *   "A TIB can be used in place of or in addition to an instruction
 *    cache, and contains the n sequential instructions stored at a
 *    branch target address. When a branch is taken, the n
 *    instructions are taken out of the TIB while the I-Fetch control
 *    logic issues requests for the instructions sequential to the
 *    ones in the TIB. If there are more instructions in the TIB than
 *    the number of clock cycles it takes to access external memory,
 *    the instruction stream will have no gaps in it."
 *
 * Our rendition uses the TIB *in place of* a cache (the 29000
 * arrangement):
 *
 *  - sequential instructions stream from off-chip memory into a small
 *    stream buffer (no cache; every instruction travels the bus, so
 *    off-chip traffic is high — the drawback the paper notes);
 *  - each taken branch allocates/uses a TIB entry, direct-mapped on
 *    the target address, holding the first tibEntryBytes of the
 *    target path;
 *  - on a TIB hit the buffered target instructions are consumed while
 *    the off-chip fetch for the instructions following the entry is
 *    issued immediately, hiding the memory latency.
 *
 * Configuration reuses FetchConfig: cacheBytes is the total TIB
 * capacity and lineBytes the entry size, so the standard sweeps
 * compare equal on-chip storage across strategies.
 */

#ifndef PIPESIM_CORE_TIB_FETCH_HH
#define PIPESIM_CORE_TIB_FETCH_HH

#include <deque>
#include <optional>
#include <vector>

#include "core/fetch_unit.hh"
#include "core/stream_follower.hh"

namespace pipesim
{

class TibFetchUnit : public FetchUnit
{
  public:
    TibFetchUnit(const FetchConfig &config, const Program &program,
                 MemorySystem &mem);

    void tick(Cycle now) override;
    bool instructionReady() const override;
    void regStats(StatGroup &stats, const std::string &prefix) override;
    void dumpState(std::ostream &os) const override;
    void saveState(StateWriter &w) const override;

    unsigned numEntries() const { return unsigned(_entries.size()); }
    unsigned entryBytes() const { return _entryBytes; }

  protected:
    void resetUnit(Addr entry) override;
    isa::FetchedInst takeNext() override;
    void resolveBranch(bool taken, Addr target) override;
    void restoreUnit(StateReader &r) override;
    void offchipAccepted(const MemRequest &req) override;
    void fillBeat(const MemRequest &req, Addr addr, unsigned bytes) override;
    void fillComplete(const MemRequest &req) override;

  private:
    struct TibEntry
    {
        bool valid = false;
        Addr target = 0;
        unsigned validBytes = 0; //!< filled from the target onward
    };

    /** A contiguous run of fetched stream bytes (cf. PipeFetchUnit). */
    struct Segment
    {
        Addr start;
        unsigned len;
    };

    TibEntry &entryFor(Addr target);

    // Each per-tick step returns true if it changed any state.
    bool handleResolvedRedirect();
    bool startFetchIfNeeded();
    void appendBytes(Addr start, unsigned len);
    void truncateBufferAt(Addr r);
    Addr tailEnd() const;
    Addr staticWalk(Addr addr, unsigned n) const;
    bool decoderStarving() const;

    FetchConfig _cfg;
    StreamFollower _follower;
    std::vector<TibEntry> _entries;
    unsigned _entryBytes;

    std::deque<Segment> _buffer;
    unsigned _occupancy = 0;
    unsigned _bufferCapacity;

    /** In-progress off-chip fetch streaming into the buffer. */
    struct Fetch
    {
        Addr nextByte;       //!< next stream byte to append
        Addr end;            //!< one past the last byte requested
        bool dead = false;   //!< squashed by a taken branch
        /** Fill this TIB entry (by target) as bytes arrive. */
        std::optional<Addr> fillTibTarget;
    };
    std::optional<Fetch> _fetch;
    bool _offchipInFlight = false;

    std::uint64_t _squashDoneId = std::uint64_t(-1);

    /** Redirect id whose target fetch was already initiated (see
     *  PipeFetchUnit::_targetPlannedId). */
    std::uint64_t _targetPlannedId = std::uint64_t(-1);

    /**
     * Targets of resolved-taken branches whose first fetch has not
     * happened yet.  A redirect can be applied by the stream follower
     * before any tick observes it (when the delay slots were already
     * buffered), so the TIB lookup keys off this queue rather than
     * the pending-redirect state.
     */
    std::deque<Addr> _pendingTargets;

    Counter _deliveredInsts;
    Counter _tibHits;
    Counter _tibMisses;
    Counter _offchipFetches;
    Counter _squashedBytes;
};

} // namespace pipesim

#endif // PIPESIM_CORE_TIB_FETCH_HH
