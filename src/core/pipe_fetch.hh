/**
 * @file
 * The PIPE instruction fetch strategy: a small direct-mapped
 * instruction cache backed by an Instruction Queue (IQ) and an
 * Instruction Queue Buffer (IQB), with control logic that exploits
 * the PBR instruction to track which instructions are guaranteed to
 * execute.
 *
 * Model summary (paper section 4.2):
 *  - Decode consumes from the head of the IQ.  When the IQ empties
 *    it refills from the IQB; when the IQB empties, the next
 *    sequential line is prefetched from the cache; a cache miss
 *    turns into an off-chip whole-line request.
 *  - Off-chip line data streams through the input bus into both the
 *    cache and the queues, so instructions are consumable as their
 *    bytes arrive.
 *  - The control logic scans buffered instructions for PBRs.  Under
 *    the GuaranteedOnly policy an off-chip request is only made for
 *    a line guaranteed to contain an unconditionally executed
 *    instruction; under TruePrefetch (used for all of the paper's
 *    presented results) speculative sequential prefetch is allowed.
 *  - When a PBR resolves taken, sequential bytes beyond the redirect
 *    point are squashed and the IQB starts filling from the branch
 *    target while the delay-slot instructions drain from the IQ.
 *
 * The IQ and IQB are modelled as one unified stream buffer of
 * capacity iqBytes + iqbBytes holding contiguous runs ("segments")
 * of the dynamic instruction stream; the IQB portion being free
 * (occupancy <= iqBytes) is the line-prefetch trigger.  This
 * preserves the architectural behaviour (capacities, lookahead
 * windows, single line-wide cache port) without simulating the
 * physical shift registers.
 */

#ifndef PIPESIM_CORE_PIPE_FETCH_HH
#define PIPESIM_CORE_PIPE_FETCH_HH

#include <deque>
#include <optional>

#include "cache/icache.hh"
#include "core/fetch_unit.hh"
#include "core/stream_follower.hh"

namespace pipesim
{

class PipeFetchUnit : public FetchUnit
{
  public:
    PipeFetchUnit(const FetchConfig &config, const Program &program,
                  MemorySystem &mem);

    void tick(Cycle now) override;
    bool instructionReady() const override;
    void regStats(StatGroup &stats, const std::string &prefix) override;
    void dumpState(std::ostream &os) const override;
    void saveState(StateWriter &w) const override;

    const InstructionCache &cache() const { return _cache; }

    /** Total buffered bytes (IQ + IQB occupancy), for tests. */
    unsigned bufferedBytes() const { return _occupancy; }

  protected:
    void resetUnit(Addr entry) override;
    isa::FetchedInst takeNext() override;
    void resolveBranch(bool taken, Addr target) override;
    void restoreUnit(StateReader &r) override;
    void offchipAccepted(const MemRequest &req) override;
    void fillBeat(const MemRequest &req, Addr addr, unsigned bytes) override;
    void fillComplete(const MemRequest &req) override;

  private:
    /** A contiguous run of buffered stream bytes. */
    struct Segment
    {
        Addr start;
        unsigned len;
    };

    /** An in-progress line fill into the stream buffer. */
    struct Fill
    {
        Addr lineBase;   //!< line being brought in
        Addr nextByte;   //!< next stream byte to append to the buffer
        Addr bufferCap;  //!< bytes at/after this address go cache-only
        bool offchip;    //!< beats stream from memory when true
        bool newSegment; //!< first append opens a fresh segment
        bool dead = false; //!< squashed; fills the cache only
    };

    // Each per-tick step returns true if it changed any state.
    bool handleResolvedRedirect();
    bool startFillIfNeeded();
    void performCacheFill();
    void appendBytes(Addr start, unsigned len);
    void truncateBufferAt(Addr r);

    /** Stream address one past the last buffered byte. */
    Addr tailEnd() const;

    /** Where the next fill should begin, and whether it retargets. */
    struct FillPlan
    {
        Addr start;
        bool newSegment;
    };
    std::optional<FillPlan> planNextFill() const;

    /** Walk @p n instruction lengths forward from @p addr. */
    Addr staticWalk(Addr addr, unsigned n) const;

    /**
     * True if an off-chip fill beginning at @p fill_start is
     * guaranteed to contain an unconditionally executed instruction.
     */
    bool fillGuaranteed(Addr fill_start, bool new_segment) const;

    /** True if the decoder is starving for bytes at nextAddr(). */
    bool decoderStarving() const;

    FetchConfig _cfg;
    InstructionCache _cache;
    StreamFollower _follower;

    std::deque<Segment> _buffer;
    unsigned _occupancy = 0;
    unsigned _capacity;

    std::optional<Fill> _fill;
    bool _offchipInFlight = false;

    /** Redirect ids whose squash/retarget handling already ran. */
    std::uint64_t _squashDoneId = std::uint64_t(-1);

    /**
     * Redirect id whose target fill has been initiated.  Once set,
     * further fills while that redirect drains its delay slots are
     * plain sequential continuations of the *target* stream; without
     * this marker the address-based comparison against the redirect
     * point would re-plan the target (duplicating stream bytes) or
     * wrongly cap post-target fills.
     */
    std::uint64_t _targetPlannedId = std::uint64_t(-1);

    Counter _deliveredInsts;
    Counter _offchipDemandLines;
    Counter _offchipPrefetchLines;
    Counter _squashedBytes;
    Counter _blockedOnGuarantee;
};

} // namespace pipesim

#endif // PIPESIM_CORE_PIPE_FETCH_HH
