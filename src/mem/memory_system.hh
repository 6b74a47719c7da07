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
#include "mem/data_memory.hh"
#include "mem/external_memory.hh"
#include "mem/fpu.hh"
#include "cache/subblock_cache.hh"
#include "mem/request.hh"
#include "obs/probe.hh"

namespace pipesim
{

namespace fault
{
class FaultInjector;
} // namespace fault

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
    MemorySystem(const MemSystemConfig &config, DataMemory &data_memory);

    /**
     * Register the CPU's data-queue request source; Data-class
     * responses return to it.
     */
    void setDataClient(MemClient *client) { _dataClient = client; }
    /**
     * Register the fetch unit's demand-miss request source;
     * IFetchDemand-class responses return to it.
     */
    void setDemandClient(MemClient *client) { _demandClient = client; }
    /**
     * Register the fetch unit's prefetch request source;
     * IPrefetch-class responses return to it.
     */
    void setPrefetchClient(MemClient *client) { _prefetchClient = client; }

    /**
     * Attach the probe bus the memory system emits into: busGrant for
     * every request accepted on the output bus, busContention when a
     * presented request loses arbitration or finds the external
     * memory busy.  Pass nullptr to detach.
     */
    void setProbes(obs::ProbeBus *probes) { _probes = probes; }

    /**
     * Attach a fault injector (fault/fault.hh): bus grants may be
     * delayed, responses jittered, and instruction fills corrupted.
     * Pass nullptr (the default) for fault-free operation.
     */
    void setFaultInjector(fault::FaultInjector *injector)
    {
        _faults = injector;
    }

    /** Advance one cycle. */
    void tick(Cycle now);

    FpuDevice &fpu() { return _fpu; }
    const FpuDevice &fpu() const { return _fpu; }
    ExternalMemory &externalMemory() { return _extMem; }
    DataMemory &dataMemory() { return _dataMem; }

    const MemSystemConfig &config() const { return _config; }

    /**
     * True if a demand instruction fetch was presented this cycle and
     * not granted: a fault-delayed grant, an external-memory refusal,
     * or a loss to a higher-priority grant.  Reset by every tick();
     * the CPI stack reads it to tell bus contention from fetch starve.
     */
    bool demandFetchContended() const { return _demandFetchContended; }

    /** True while a response transfer occupies the input bus. */
    bool inputBusBusy() const { return _transfer.has_value(); }

    /** The on-chip data cache, when configured. */
    bool hasDcache() const { return _dcache.has_value(); }
    const SubblockCache &dcache() const { return *_dcache; }

    /** True if no request is in flight anywhere in the system. */
    bool quiescent() const;

    /** Write the memory-side machine state (forensic snapshots). */
    void dumpState(std::ostream &os) const;

    void regStats(StatGroup &stats, const std::string &prefix);

    /**
     * Serialize the full memory-side state (busses, external memory,
     * FPU, data cache, counters) for a checkpoint.  DataMemory
     * contents are saved separately by the owner (it is shared).
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
        /**
         * Injected fill parity error: the bus stays occupied for the
         * usual beats, but no beat is delivered and parityError()
         * replaces complete() at the end (decided once, at transfer
         * selection, so not a single corrupt byte is ever delivered).
         */
        bool corrupted = false;
    };

    void deliverInputBus(Cycle now);
    void selectTransfer(Cycle now);
    void deliverBeat(Cycle now);
    void acceptOutputBus(Cycle now);
    bool tryAccept(MemClient *client, Cycle now);
    void serviceDcache(Cycle now);
    void deliverLocalResponse(Cycle now);

    /** True if this response may start transferring now. */
    bool deliverable(const MemRequest &req) const;

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
    DataMemory &_dataMem;
    ExternalMemory _extMem;
    FpuDevice _fpu;

    MemClient *_dataClient = nullptr;
    MemClient *_demandClient = nullptr;
    MemClient *_prefetchClient = nullptr;
    obs::ProbeBus *_probes = nullptr;
    fault::FaultInjector *_faults = nullptr;

    std::optional<Transfer> _transfer;
    bool _demandFetchContended = false;

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
