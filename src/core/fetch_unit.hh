/**
 * @file
 * The instruction-supply interface shared by the two fetch
 * strategies under study, plus the fetch-side configuration.
 *
 * Per cycle the simulator calls tick() (internal machinery: cache
 * lookups, buffer management, off-chip request generation) and the
 * pipeline consumes at most one instruction via instructionReady() /
 * take().  The pipeline pushes branch resolutions back with
 * branchResolved().
 */

#ifndef PIPESIM_CORE_FETCH_UNIT_HH
#define PIPESIM_CORE_FETCH_UNIT_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "assembler/program.hh"
#include "common/log.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "isa/instruction.hh"
#include "mem/memory_system.hh"
#include "mem/request.hh"
#include "obs/probe.hh"

namespace pipesim
{

/** Which fetch strategy to instantiate. */
enum class FetchStrategy
{
    Pipe,          //!< cache + IQ + IQB (the paper's contribution)
    Conventional,  //!< Hill's always-prefetch sub-blocked cache
    Tib,           //!< target instruction buffer (paper section 2.1)
};

/** Off-chip request gating policy for the PIPE strategy (section 6). */
enum class OffchipPolicy
{
    /**
     * Issue off-chip prefetches only for lines guaranteed to contain
     * at least one unconditionally executed instruction (the policy
     * the fabricated PIPE chip uses).
     */
    GuaranteedOnly,
    /**
     * True prefetching: speculative off-chip line requests are
     * allowed.  All results presented in the paper use this policy.
     */
    TruePrefetch,
};

/** Fetch-side configuration (paper simulation parameters 2,3,7,8). */
struct FetchConfig
{
    FetchStrategy strategy = FetchStrategy::Pipe;
    unsigned cacheBytes = 128;  //!< parameter 2 (the PIPE chip: 128)
    unsigned lineBytes = 8;     //!< parameter 3
    unsigned iqBytes = 8;       //!< parameter 7 (PIPE only)
    unsigned iqbBytes = 8;      //!< parameter 8 (PIPE only)
    OffchipPolicy offchipPolicy = OffchipPolicy::TruePrefetch;

    /**
     * Conventional strategy only: enable Hill's always-prefetch.
     * Disabling it gives the plain demand-fetch cache -- the
     * baseline always-prefetch consistently beat in Hill's study,
     * which is the premise the paper builds on.
     */
    bool alwaysPrefetch = true;

    /**
     * Consecutive instruction-fill parity errors (fault injection;
     * see docs/robustness.md) tolerated before the unit declares the
     * machine wedged with a SimAbort.  Each erroring fill is simply
     * retried: a corrupted transfer delivers no bytes, so the
     * allocated line stays invalid and the demand path re-requests it.
     */
    unsigned parityRetryLimit = 4;
};

class FetchUnit
{
  public:
    /**
     * @param program Program image instructions are decoded from.
     * @param mem     Memory system; the unit registers its demand
     *                and prefetch request clients with it.
     */
    FetchUnit(const Program &program, MemorySystem &mem);
    virtual ~FetchUnit();

    FetchUnit(const FetchUnit &) = delete;
    FetchUnit &operator=(const FetchUnit &) = delete;

    /** Restart fetching at @p entry with cold buffers and cache. */
    virtual void reset(Addr entry) = 0;

    /** Advance internal machinery one cycle. */
    virtual void tick(Cycle now) = 0;

    /** @return true if an instruction can be consumed this cycle. */
    virtual bool instructionReady() const = 0;

    /** Consume the next instruction (instructionReady() holds). */
    virtual isa::FetchedInst take() = 0;

    /**
     * A PBR resolved in the pipeline (applies to the oldest
     * unresolved PBR, in program order).
     */
    virtual void branchResolved(bool taken, Addr target) = 0;

    /** Register statistics under @p prefix. */
    virtual void regStats(StatGroup &stats, const std::string &prefix) = 0;

    /** Write the unit's internal state (forensic snapshots). */
    virtual void dumpState(std::ostream &os) const = 0;

    /** Serialize the unit's full state for a checkpoint. */
    virtual void saveState(StateWriter &w) const = 0;

    /**
     * Restore state saved by saveState() on a unit built from the
     * same FetchConfig and Program.
     */
    virtual void restoreState(StateReader &r) = 0;

    /**
     * Attach the probe bus the unit emits into: icacheAccess on every
     * cache/buffer lookup, fetchRequest when an off-chip line request
     * wins the bus, fetchFill when its last beat arrives.  Pass
     * nullptr to detach.
     */
    void setProbes(obs::ProbeBus *probes) { _probes = probes; }

  protected:
    /**
     * MemClient adapter: routes the memory system's pull requests of
     * one class to the owning unit, and that class's responses back.
     * The unit owns both instruction ports, so fills of either class
     * return to it.
     */
    class ClientPort : public MemClient
    {
      public:
        ClientPort(FetchUnit &unit, ReqClass cls)
            : _unit(unit), _cls(cls)
        {
        }

        const MemRequest *
        peek() override
        {
            return _unit.peekOffchip(_cls);
        }

        void accepted() override { _unit.offchipAccepted(); }

        void
        beat(const MemRequest &req, Addr addr, unsigned bytes) override
        {
            _unit.fillBeat(req, addr, bytes);
        }

        void
        complete(const MemRequest &req) override
        {
            _unit.fillComplete(req);
        }

        void
        parityError(const MemRequest &req) override
        {
            _unit.fillParityError(req);
        }

      private:
        FetchUnit &_unit;
        ReqClass _cls;
    };

    /** The unit's candidate off-chip request of class @p cls, or
     *  nullptr (points into the unit; see MemClient::peek). */
    virtual const MemRequest *peekOffchip(ReqClass cls) = 0;

    /** The candidate request was accepted on the output bus. */
    virtual void offchipAccepted() = 0;

    /** One input-bus beat of the in-flight fill @p req. */
    virtual void fillBeat(const MemRequest &req, Addr addr,
                          unsigned bytes) = 0;

    /** The in-flight fill @p req delivered its last beat. */
    virtual void fillComplete(const MemRequest &req) = 0;

    /**
     * The in-flight fill @p req was corrupted (see
     * MemClient::parityError): roll back the fill state so the fetch
     * is retried, then call noteParityError().
     */
    virtual void fillParityError(const MemRequest &req) = 0;

    /**
     * The instruction at @p addr, decoded from the program image the
     * first time it is asked for.  The reference stays valid for the
     * unit's lifetime.
     */
    const isa::Instruction &
    decodeAt(Addr addr) const
    {
        if (!_program.inCode(addr))
            return _pastEnd;
        const Addr off = addr - _program.codeBase();
        PIPESIM_ASSERT(off % parcelBytes == 0, "unaligned parcel address ",
                       addr);
        isa::Instruction &inst = _decoded[off / parcelBytes];
        if (inst.parcels == 0)
            inst = *_program.decodeAt(addr);
        return inst;
    }

    /** Byte size of the instruction at @p addr. */
    unsigned instSizeAt(Addr addr) const
    {
        return decodeAt(addr).sizeBytes();
    }

    /**
     * An instruction fill ended in an injected parity error.  The
     * caller has already rolled back its fill state so the fetch is
     * retried from scratch; this counts the retry and raises SimAbort
     * once parityRetryLimit consecutive fills have failed.
     */
    void noteParityError(Addr addr, unsigned bytes);

    /** A fill completed cleanly: reset the consecutive-error run. */
    void noteGoodFill() { _consecutiveParityErrors = 0; }

    /** Register the shared parity-retry counter under @p prefix. */
    void regParityStats(StatGroup &stats, const std::string &prefix);

    /** Serialize the base-class state shared by every strategy. */
    void saveBaseState(StateWriter &w) const
    {
        w.u32(_parityRetryLimit);
        w.u32(_consecutiveParityErrors);
        w.u64(_parityRetries.value());
        w.u64(_obsNow);
    }

    void restoreBaseState(StateReader &r)
    {
        if (r.u32() != _parityRetryLimit)
            r.fail("parity retry limit mismatch");
        _consecutiveParityErrors = r.u32();
        _parityRetries.set(r.u64());
        _obsNow = r.u64();
    }

    const Program &_program;

    /**
     * Decoded instructions of the code image, one slot per parcel,
     * filled lazily: a slot inside a two-parcel instruction is never
     * a valid decode, so the table cannot be built eagerly.  A slot
     * with zero parcels is not decoded yet.
     */
    mutable std::vector<isa::Instruction> _decoded;

    /**
     * What decodeAt() returns past the program image: the zero parcel
     * (an ALU no-op).  The simulation halts before such instructions
     * ever issue; they only exist so prefetch lookahead can run off
     * the end of code.
     */
    isa::Instruction _pastEnd;

    MemorySystem &_mem;
    ClientPort _demandPort;
    ClientPort _prefetchPort;
    obs::ProbeBus *_probes = nullptr;
    /** See FetchConfig::parityRetryLimit (subclasses copy it here). */
    unsigned _parityRetryLimit = 4;
    unsigned _consecutiveParityErrors = 0;
    Counter _parityRetries;
    /**
     * Cycle of the most recent tick().  Acceptances and fill responses
     * arrive from the memory system's tick, which runs after the fetch
     * tick in the same cycle, so stamping events with this is exact.
     */
    Cycle _obsNow = 0;
};

} // namespace pipesim

#endif // PIPESIM_CORE_FETCH_UNIT_HH
