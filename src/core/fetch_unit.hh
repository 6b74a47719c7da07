/**
 * @file
 * The instruction-supply interface shared by the two fetch
 * strategies under study, plus the fetch-side configuration.
 *
 * Per cycle the simulator calls tick() (internal machinery: cache
 * lookups, buffer management, off-chip request generation) and the
 * pipeline consumes at most one instruction via tryTake().  The
 * pipeline pushes branch resolutions back with branchResolved().
 *
 * The unit is the memory system's instruction client: it posts at
 * most one off-chip request at a time in its slot (MemClient), whose
 * class picks demand or prefetch priority, and the fills of both
 * classes return to it.
 */

#ifndef PIPESIM_CORE_FETCH_UNIT_HH
#define PIPESIM_CORE_FETCH_UNIT_HH

#include <iosfwd>
#include <optional>
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
};

class FetchUnit : public MemClient
{
  public:
    /**
     * @param program Program image instructions are decoded from.
     * @param mem     Memory system; the unit registers itself as its
     *                instruction client.
     */
    FetchUnit(const Program &program, MemorySystem &mem);
    ~FetchUnit() override;

    FetchUnit(const FetchUnit &) = delete;
    FetchUnit &operator=(const FetchUnit &) = delete;

    /** Restart fetching at @p entry with cold buffers and cache. */
    void
    reset(Addr entry)
    {
        _touched = true;
        withdraw();
        resetUnit(entry);
    }

    /** Advance internal machinery one cycle (starts with beginTick). */
    virtual void tick(Cycle now) = 0;

    /**
     * Tick gating (see Simulator): tick(@p now), unless the last tick
     * was idle and nothing called into the unit since.  No strategy
     * compares the clock or reads memory-system state, so that tick
     * would repeat the idle one; only the probe clock advances.
     * @return true if the tick ran.
     */
    bool
    tickGated(Cycle now)
    {
        if (_idle && !_touched) {
            _obsNow = now;
            return false;
        }
        tick(now);
        return true;
    }

    /**
     * The idle skip (see Simulator): @p last + 1 unless the last tick
     * was idle and nothing called into the unit since, else
     * neverCycle: an idle tick repeats until the pipeline or the
     * memory system changes the unit's state.
     */
    Cycle nextEvent(Cycle last) const
    {
        return _idle && !_touched ? neverCycle : last + 1;
    }

    /** Account @p n skipped repeats of an idle tick. */
    void repeatIdleTick(Cycle n) { _obsNow += n; }

    /** @return true if an instruction can be consumed this cycle. */
    virtual bool instructionReady() const = 0;

    /** Consume the next instruction, if one is ready. */
    std::optional<isa::FetchedInst>
    tryTake()
    {
        if (!instructionReady())
            return std::nullopt;
        _touched = true;
        return takeNext();
    }

    /** Consume the next instruction (instructionReady() holds). */
    isa::FetchedInst
    take()
    {
        PIPESIM_ASSERT(instructionReady(), "take() with nothing ready");
        _touched = true;
        return takeNext();
    }

    /**
     * A PBR resolved in the pipeline (applies to the oldest
     * unresolved PBR, in program order).
     */
    void
    branchResolved(bool taken, Addr target)
    {
        _touched = true;
        resolveBranch(taken, target);
    }

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
    void
    restoreState(StateReader &r)
    {
        _touched = true;
        restoreUnit(r);
    }

    /**
     * Attach the probe bus the unit emits into: icacheAccess on every
     * cache/buffer lookup, fetchRequest when an off-chip line request
     * wins the bus, fetchFill when its last beat arrives.  Pass
     * nullptr to detach.
     */
    void setProbes(obs::ProbeBus *probes) { _probes = probes; }

    // The memory system's callbacks (MemClient): each one raises the
    // touched flag and forwards to the strategy.

    /** The posted request won the output bus: it is in flight now. */
    void
    accepted() final
    {
        _touched = true;
        const MemRequest &req = *request();
        if (_probes && _probes->fetchRequest.active()) {
            _probes->fetchRequest.notify(obs::FetchEvent{
                _obsNow, req.addr, req.bytes,
                req.cls == ReqClass::IFetchDemand});
        }
        offchipAccepted(req);
        withdraw();
    }

    void
    beat(const MemRequest &req, Addr addr, unsigned bytes) final
    {
        _touched = true;
        fillBeat(req, addr, bytes);
    }

    void
    complete(const MemRequest &req) final
    {
        _touched = true;
        fillComplete(req);
    }

  protected:
    /** reset() after the base has withdrawn the posted request. */
    virtual void resetUnit(Addr entry) = 0;

    /** take(): the next instruction (instructionReady() holds). */
    virtual isa::FetchedInst takeNext() = 0;

    /** branchResolved(). */
    virtual void resolveBranch(bool taken, Addr target) = 0;

    /** restoreState(). */
    virtual void restoreUnit(StateReader &r) = 0;

    /** The posted request @p req was accepted on the output bus. */
    virtual void offchipAccepted(const MemRequest &req) = 0;

    /** One input-bus beat of the in-flight fill @p req. */
    virtual void fillBeat(const MemRequest &req, Addr addr,
                          unsigned bytes) = 0;

    /** The in-flight fill @p req delivered its last beat. */
    virtual void fillComplete(const MemRequest &req) = 0;

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
        if (inst.parcels == 0) {
            const auto decoded = _program.decodeAt(addr);
            PIPESIM_ASSERT(decoded, "undecodable parcel at ", addr);
            inst = *decoded;
        }
        return inst;
    }

    /** Byte size of the instruction at @p addr. */
    unsigned instSizeAt(Addr addr) const
    {
        return decodeAt(addr).sizeBytes();
    }

    /** Every tick() starts here. */
    void
    beginTick(Cycle now)
    {
        _obsNow = now;
        _touched = false;
    }

    /** The posted prefetch becomes a demand fetch. */
    void
    promoteToDemand()
    {
        MemRequest req = *request();
        req.cls = ReqClass::IFetchDemand;
        post(req);
    }

    /** Serialize the posted request (at the strategy's place). */
    void
    saveRequest(StateWriter &w) const
    {
        w.b(request() != nullptr);
        if (request())
            saveMemRequest(w, *request());
    }

    void
    restoreRequest(StateReader &r)
    {
        if (r.b())
            post(restoreMemRequest(r));
        else
            withdraw();
    }

    /** Serialize the base-class state shared by every strategy. */
    void saveBaseState(StateWriter &w) const
    {
        // Only stamps probe events: never compared with the clock.
        w.stamp(_obsNow);
    }

    void restoreBaseState(StateReader &r)
    {
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
    obs::ProbeBus *_probes = nullptr;
    /**
     * Cycle of the most recent tick().  Acceptances and fill responses
     * arrive from the memory system's tick, which runs after the fetch
     * tick in the same cycle, so stamping events with this is exact.
     */
    Cycle _obsNow = 0;

    /**
     * The last tick changed nothing: no redirect handled, no request
     * made or promoted, no lookup or fill.  Each strategy's tick()
     * sets it.
     */
    bool _idle = false;

    /**
     * Something called into the unit since its last tick: take,
     * branchResolved, a memory callback, reset or restoreState.
     */
    bool _touched = true;
};

} // namespace pipesim

#endif // PIPESIM_CORE_FETCH_UNIT_HH
