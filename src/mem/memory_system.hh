/**
 * @file
 * The complete off-chip memory interface: output bus (requests),
 * input bus (responses), external memory and memory-mapped FPU, with
 * the paper's priority arbitration.
 *
 * Per-cycle behaviour (in tick order):
 *  1. The external memory retires completed stores.
 *  2. The input bus delivers one beat (busWidthBytes) of the active
 *     response transfer; if the bus is idle a new response is
 *     selected: demand responses first, then FPU results, then
 *     prefetch responses.  Data-load responses are delivered strictly
 *     in program order (the LDQ is a FIFO).
 *  3. The output bus accepts at most one request, chosen by class
 *     priority: demand instruction fetch vs. data order is
 *     configurable (the paper's presented results put instructions
 *     first); prefetches always lose.
 */

#ifndef PIPESIM_MEM_MEMORY_SYSTEM_HH
#define PIPESIM_MEM_MEMORY_SYSTEM_HH

#include <deque>
#include <iosfwd>
#include <optional>

#include "common/state_io.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "mem/external_memory.hh"
#include "mem/fpu.hh"
#include "cache/subblock_cache.hh"
#include "mem/request.hh"
#include "obs/probe.hh"

namespace pipesim
{

/** Memory-side configuration (paper simulation parameters 4-6). */
struct MemSystemConfig
{
    unsigned accessTime = 1;         //!< external memory access time
    unsigned busWidthBytes = 4;      //!< input bus width (parameter 5)
    bool pipelined = false;          //!< pipelined memory (parameter 6)
    bool instructionPriority = true; //!< demand I-fetch over data
    unsigned fpuLatency = 4;         //!< FPU op latency (paper: 4)

    /**
     * Extension (paper section 6): an optional on-chip data cache --
     * "the higher densities achieved in the mature technology can be
     * used to expand the on-chip cache to include data".  0 disables
     * it (the paper's machine).  Write-through, no write-allocate,
     * word-granular valid bits, 1-cycle hits that bypass the busses.
     */
    unsigned dcacheBytes = 0;
    unsigned dcacheLineBytes = 16;
};

class MemorySystem
{
  public:
    explicit MemorySystem(const MemSystemConfig &config);

    /**
     * Register the CPU's data-queue request source; Data-class
     * responses return to it.  Pass nullptr to unregister.
     */
    void setDataClient(MemClient *client) { attach(_dataClient, client); }

    /**
     * Register the fetch unit's request source.  Its posted request's
     * class picks its priority: an IFetchDemand request competes with
     * data as instructionPriority says, an IPrefetch request always
     * loses.  Responses of both classes return to it.
     */
    void
    setInstructionClient(MemClient *client)
    {
        attach(_instrClient, client);
    }

    /**
     * Attach the probe bus the memory system emits into: busGrant for
     * every request accepted on the output bus, busContention when a
     * presented request loses arbitration or finds the external
     * memory busy.  Pass nullptr to detach.
     */
    void setProbes(obs::ProbeBus *probes) { _probes = probes; }

    /** Advance one cycle. */
    void tick(Cycle now);

    /**
     * Tick gating (see Simulator): tick(@p now), unless the last tick
     * was idle, no client slot changed since, and @p now is before
     * that tick's next event; then account @p now as one more repeat
     * of it.  Exact only when nothing listens on a probe per cycle.
     * @return true if the tick ran.
     */
    bool
    tickGated(Cycle now)
    {
        if (_idle && !_posted && now < _wake) {
            repeatIdleTick(1);
            return false;
        }
        tick(now);
        return true;
    }

    /**
     * The idle skip (see Simulator): the first cycle after @p last
     * whose tick may differ from a repeat of the last one, assuming
     * the clients stay as they are.  @p last + 1 unless that tick
     * moved nothing (no store retired, no response delivered or
     * selected, no data-cache service, no grant) and no slot changed
     * since; then the next cycle an external-memory request, an FPU
     * result or a data-cache hit becomes ready, else neverCycle.
     */
    Cycle
    nextEvent(Cycle last) const
    {
        return _idle && !_posted ? _wake : last + 1;
    }

    /** Account @p n skipped repeats of the last tick. */
    void repeatIdleTick(Cycle n) { _extMem.repeatIdleTick(n); }

    FpuDevice &fpu() { return _fpu; }
    const FpuDevice &fpu() const { return _fpu; }
    ExternalMemory &externalMemory() { return _extMem; }

    const MemSystemConfig &config() const { return _config; }

    /**
     * True if a demand instruction fetch was presented this cycle and
     * not granted: an external-memory refusal or a loss to a
     * higher-priority grant.  Reset by every tick();
     * the CPI stack reads it to tell bus contention from fetch starve.
     */
    bool demandFetchContended() const { return _demandFetchContended; }

    /** True while a response transfer occupies the input bus. */
    bool inputBusBusy() const { return _transfer.has_value(); }

    /** The on-chip data cache, when configured. */
    bool hasDcache() const { return _dcache.has_value(); }
    const SubblockCache &dcache() const { return *_dcache; }

    /** Data stores the external memory holds. */
    std::size_t dataStoresInFlight() const { return _extMem.dataStores(); }

    /**
     * ExternalMemory::retargetData, and the input bus's data transfer
     * too (a device address is never stale).
     */
    template <class AddrOf>
    void
    retargetData(AddrOf &&addrOf)
    {
        _extMem.retargetData(addrOf);
        if (_transfer && _transfer->req.cls == ReqClass::Data &&
            !FpuDevice::contains(_transfer->req.addr)) {
            const Addr addr = addrOf(_transfer->req, 0);
            _transfer->nextAddr += addr - _transfer->req.addr;
            _transfer->req.addr = addr;
        }
    }

    /** True if no request is in flight anywhere in the system. */
    bool quiescent() const;

    /** Write the memory-side machine state (forensic snapshots). */
    void dumpState(std::ostream &os) const;

    void regStats(StatGroup &stats, const std::string &prefix);

    /**
     * Serialize the full memory-side state (busses, external memory,
     * FPU, data cache, counters) for a checkpoint.
     */
    void saveState(StateWriter &w) const;

    /**
     * Restore state saved by saveState(); geometry mismatches fail
     * the reader.
     */
    void restoreState(StateReader &r);

  private:
    struct Transfer
    {
        MemRequest req;
        Addr nextAddr;
        unsigned bytesLeft;
        bool fromExtMem;
        Word value; //!< data-load value to hand to loadData()
    };

    // Each per-tick step returns true if it changed any state.
    bool deliverInputBus(Cycle now);
    void selectTransfer(Cycle now);
    void deliverBeat(Cycle now);
    bool acceptOutputBus(Cycle now);
    /** Offer @p client's posted request (it has one) for a grant. */
    bool tryAccept(MemClient &client, Cycle now);
    bool serviceDcache(Cycle now);
    bool deliverLocalResponse(Cycle now);

    /** True if this response may start transferring now. */
    bool deliverable(const MemRequest &req) const;

    /** Register @p client in @p slot, unregistering its predecessor. */
    void attach(MemClient *&slot, MemClient *client);

    /**
     * After an idle tick at @p now, the first later cycle whose tick
     * may differ: an idle tick compares the clock only with ready
     * times.
     */
    Cycle idleWake(Cycle now) const;

    /** The client that owns @p req's class (its responses go there). */
    MemClient &owner(const MemRequest &req) const;

    /** Hand a finished load/fill response back to its owner. */
    void finish(const MemRequest &req, Word value);

    /**
     * A presented request of class @p cls was not granted this cycle:
     * raise the demand-fetch flag and emit busContention.
     */
    void noteContention(Cycle now, ReqClass cls);

    MemSystemConfig _config;
    ExternalMemory _extMem;
    FpuDevice _fpu;

    MemClient *_dataClient = nullptr;
    MemClient *_instrClient = nullptr;
    obs::ProbeBus *_probes = nullptr;

    std::optional<Transfer> _transfer;
    bool _demandFetchContended = false;

    /** The last tick changed nothing but counters (see nextEvent). */
    bool _idle = false;
    /** A client slot changed since the last tick (see MemClient). */
    bool _posted = true;
    /** After an idle tick: its idleWake(). */
    Cycle _wake = 0;

    /** On-chip data cache state (extension; see MemSystemConfig). */
    std::optional<SubblockCache> _dcache;

    /** Data-cache hit responses awaiting in-order LDQ delivery. */
    struct LocalResponse
    {
        MemRequest req;
        Word value;
        Cycle readyAt;
    };
    std::deque<LocalResponse> _localResponses;

    /** Data sequence whose dcache miss was already counted. */
    std::uint64_t _lastDcacheMissSeq = std::uint64_t(-1);

    /** Next data-load sequence number the input bus may deliver. */
    std::uint64_t _nextDataDeliverSeq = 0;

    Counter _inputBusBusyCycles;
    Counter _outputBusBusyCycles;
    Counter _dataRequests;
    Counter _dcacheHits;
    Counter _dcacheMisses;
    Counter _demandRequests;
    Counter _prefetchRequests;
    Counter _beatsDelivered;
};

} // namespace pipesim

#endif // PIPESIM_MEM_MEMORY_SYSTEM_HH
