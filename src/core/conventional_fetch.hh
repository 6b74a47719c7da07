/**
 * @file
 * The conventional instruction cache baseline: Hill's always-prefetch
 * strategy (paper section 4.1).
 *
 * Model summary:
 *  - Direct-mapped cache with sub-blocked lines (one valid bit per
 *    instruction slot).  The PC is presented every cycle; tag and
 *    array lookup complete within the cycle, so a hit delivers one
 *    instruction per cycle.
 *  - On every instruction reference the next sequential location is
 *    prefetched, even across a line boundary (allocating/retagging
 *    the next line if needed).
 *  - Memory requests fetch one aligned bus-width region (one
 *    instruction on a 4-byte bus, two on an 8-byte bus); only one
 *    request may be outstanding, so a demand miss must wait for an
 *    in-flight prefetch to finish.
 *  - Data fetches have priority over instruction fetches and
 *    prefetches at the memory interface (configured in the memory
 *    system); demand fetches have priority over prefetches.
 *
 * The processor executes the same PIPE ISA, so PBR delay slots and
 * resolution timing are identical between strategies; only the
 * instruction-supply machinery differs.
 */

#ifndef PIPESIM_CORE_CONVENTIONAL_FETCH_HH
#define PIPESIM_CORE_CONVENTIONAL_FETCH_HH

#include <optional>

#include "cache/subblock_cache.hh"
#include "core/fetch_unit.hh"
#include "core/stream_follower.hh"

namespace pipesim
{

class ConventionalFetchUnit : public FetchUnit
{
  public:
    ConventionalFetchUnit(const FetchConfig &config, const Program &program,
                          MemorySystem &mem);

    void reset(Addr entry) override;
    void tick(Cycle now) override;
    bool instructionReady() const override;
    isa::FetchedInst take() override;
    void branchResolved(bool taken, Addr target) override;
    void regStats(StatGroup &stats, const std::string &prefix) override;
    void dumpState(std::ostream &os) const override;
    void saveState(StateWriter &w) const override;
    void restoreState(StateReader &r) override;

    const SubblockCache &cache() const { return _cache; }

  protected:
    const MemRequest *peekOffchip(ReqClass cls) override;
    void offchipAccepted() override;
    void fillBeat(const MemRequest &req, Addr addr, unsigned bytes) override;
    void fillComplete(const MemRequest &req) override;
    void fillParityError(const MemRequest &req) override;

  private:
    /** First sub-block of [addr, addr+bytes) missing from the cache. */
    std::optional<Addr> firstMissing(Addr addr, unsigned bytes) const;

    /** Build a fetch request for the aligned region containing addr. */
    MemRequest makeRequest(Addr addr, ReqClass cls);

    /** True if the outstanding request will fill @p addr's sub-block. */
    bool inflightCovers(Addr addr) const;

    FetchConfig _cfg;
    SubblockCache _cache;
    StreamFollower _follower;

    std::optional<MemRequest> _want;
    bool _outstanding = false;
    Addr _outstandingAddr = 0;
    unsigned _outstandingBytes = 0;

    /** Pending always-prefetch target (set on each reference). */
    std::optional<Addr> _prefetchAddr;

    /** Address whose demand miss has been counted already. */
    std::optional<Addr> _missRecordedFor;

    Counter _deliveredInsts;
    Counter _demandFetches;
    Counter _prefetchFetches;

    unsigned _busRegionBytes;
};

} // namespace pipesim

#endif // PIPESIM_CORE_CONVENTIONAL_FETCH_HH
