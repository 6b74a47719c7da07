/**
 * @file
 * The PIPE processor pipeline: Instruction Fetch, Instruction Decode,
 * Instruction Issue, ALU1, ALU2 (paper section 3).
 *
 * Values come from the functional executor (cpu/executor.hh) or a
 * captured trace, through one RecordStream: timing depends on data
 * values through exactly three channels, a PBR's direction and
 * target, a load/store's effective address, and HALT (which follows
 * from the opcode), and each issued instruction takes them from its
 * record.  The cycle engine and trace replay are bit-exact against
 * each other because everything but the stream's source is the same
 * code.  Every value word left in the timing model (registers, queue
 * data) is a constant.
 *
 * Issue semantics (the timing-relevant part):
 *  - one instruction issues per cycle, in order;
 *  - reading r7 pops the Load Data Queue and stalls while it is
 *    empty; writing r7 pushes the Store Data Queue and stalls while
 *    it is full;
 *  - loads push the Load Address Queue (stalling when it, or the LDQ
 *    reservation window, is full); stores push the Store Address
 *    Queue;
 *  - ALU results are fully bypassed (a dependent instruction may
 *    issue the next cycle); the latency is configurable;
 *  - a PBR evaluates its condition in ALU1, i.e. the fetch unit
 *    learns the direction one cycle after the PBR issues.
 *
 * The Load/Store address queues drain to the memory system through a
 * MemClient in program order (conservative memory-conflict handling,
 * which the Livermore recurrences rely on): its slot holds the oldest
 * access, reposted wherever a queue head changes.  Data returns fill
 * the LDQ strictly in load order.
 */

#ifndef PIPESIM_CPU_PIPELINE_HH
#define PIPESIM_CPU_PIPELINE_HH

#include <array>
#include <iosfwd>
#include <optional>
#include <vector>

#include "common/state_io.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "core/fetch_unit.hh"
#include "cpu/regfile.hh"
#include "isa/instruction.hh"
#include "mem/memory_system.hh"
#include "obs/cpi_stack.hh"
#include "obs/probe.hh"
#include "queue/arch_queues.hh"

namespace pipesim
{

class RecordStream;

namespace replay
{
struct TraceRecord;
} // namespace replay

/** Processor-side configuration. */
struct PipelineConfig
{
    std::size_t laqEntries = 8;
    std::size_t ldqEntries = 8;
    std::size_t saqEntries = 8;
    std::size_t sdqEntries = 8;
    unsigned aluLatency = 1; //!< cycles until a result is readable
};

class Pipeline
{
  public:
    /**
     * @param records The value source: each issued instruction
     *                consumes the next record, from @p firstRecord on,
     *                and takes its effective address and branch
     *                outcome from it.
     */
    Pipeline(const PipelineConfig &config, FetchUnit &fetch,
             MemorySystem &mem, RecordStream &records,
             std::size_t firstRecord = 0);
    ~Pipeline();

    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    /** Advance one cycle (called after the memory and fetch ticks). */
    void tick(Cycle now);

    /**
     * The idle skip (see Simulator): the first cycle after @p last
     * whose tick may differ from a repeat of tick(@p last), assuming
     * the fetch unit and memory stay as they are.  @p last + 1 unless
     * that tick only stalled or starved; then the cycle the last busy
     * source register frees up under a register stall, else
     * neverCycle.
     */
    Cycle
    nextEvent(Cycle last) const
    {
        if (!_lastTick.idle)
            return last + 1;
        return _lastTick.hazard == StallReason::RegBusy ? sourcesFree(last)
                                                        : neverCycle;
    }

    /** Account @p n skipped repeats of the last tick's stall. */
    void repeatIdleTick(Cycle n);

    /** @return true once HALT has issued. */
    bool halted() const { return _halted; }

    /** @return true if all queues have drained after HALT. */
    bool drained() const;

    std::uint64_t instructionsRetired() const { return _retired.value(); }

    /** Cycle at which HALT issued (valid once halted()). */
    Cycle haltCycle() const { return _haltCycle; }

    /** Index of the next record: the next instruction to issue. */
    std::size_t cursor() const { return _cursor; }

    /** @return true once a captured trace issued every record. */
    bool traceExhausted() const;

    RegFile &regs() { return _regs; }
    const RegFile &regs() const { return _regs; }
    ArchQueues &queues() { return _queues; }

    /**
     * Attach the probe bus the pipeline emits into: one CycleClass
     * per tick, one RetireEvent per issued instruction, and per-cycle
     * queue occupancy samples.  Pass nullptr to detach.
     */
    void setProbes(obs::ProbeBus *probes) { _probes = probes; }

    /**
     * Feed @p stack one CycleClass per tick, at the end of tick(),
     * with the memory system's demand-fetch contention flag for the
     * same cycle.  Pass nullptr to stop accounting.
     */
    void setCpiStack(obs::CpiStack *stack) { _cpiStack = stack; }

    /**
     * A loop-memo skip copies data addresses from a period earlier:
     * give each live load and store the address of the record that
     * issued it, and the memory system's in-flight data requests with
     * them.  @return how far behind the cursor those records reach, or
     * nullopt when the stream no longer holds them; with @p apply
     * false, only measure that.
     */
    std::optional<std::size_t> resyncDataAddrs(bool apply);

    /** PCs of the most recently issued instructions, oldest first. */
    std::vector<Addr> recentRetiredPcs() const;

    /** Write the pipeline state (forensic snapshots). */
    void dumpState(std::ostream &os) const;

    void regStats(StatGroup &stats, const std::string &prefix);

    /** Serialize the pipeline's full state for a checkpoint. */
    void saveState(StateWriter &w) const;

    /**
     * Restore state saved by saveState().  Latched instructions
     * carry their full decoding in the snapshot (a latch may hold a
     * speculatively fetched instruction from outside the code image,
     * squashed before execution, so the program cannot re-decode it).
     */
    void restoreState(StateReader &r);

  private:
    /**
     * MemClient presenting LAQ/SAQ traffic in program order; load
     * data returns through it into the LDQ.
     */
    class DataPort : public MemClient
    {
      public:
        explicit DataPort(Pipeline &owner) : _owner(owner) {}

        /**
         * Post the oldest pending access: the LAQ head if it is older
         * than the SAQ head, else the SAQ head once its SDQ data
         * exists, else nothing.  Called wherever a head changes.
         */
        void refresh();

        void accepted() override;
        void loadData(const MemRequest &req, Word value) override;

      private:
        Pipeline &_owner;
    };

    /** Why issue stalled this cycle (for statistics). */
    enum class StallReason
    {
        None,
        RegBusy,
        LdqEmpty,
        SdqFull,
        LaqFull,
        LdqReserved,
        SaqFull,
    };

    StallReason issueHazard(const isa::Instruction &inst, Cycle now) const;

    /**
     * An issue stall on the LDQ with no load in flight never clears:
     * raise SimAbort, naming the queue size the program overran.
     */
    void checkLdqDeadlock(StallReason hazard, Cycle now) const;

    /**
     * The first cycle after @p last at which every busy source of the
     * latched instruction has its result: a register stall's only
     * clock comparison.
     */
    Cycle sourcesFree(Cycle last) const;

    /** Count @p n cycles stalled on @p hazard; @return their class. */
    obs::CycleClass countStall(StallReason hazard, Cycle n);

    void execute(const isa::FetchedInst &fi, Cycle now);

    /** @p fi's record (the Pipe_Op record): its value channels. */
    const replay::TraceRecord &recorded(const isa::FetchedInst &fi);

    /** @return true if the oldest pending memory op is a load. */
    bool loadIsNext() const;

    /** Every statistics counter, in checkpoint order. */
    template <class Self>
    static auto
    counters(Self &self)
    {
        return std::array{&self._retired, &self._issueStallRegBusy,
                          &self._issueStallLdqEmpty,
                          &self._issueStallSdqFull,
                          &self._issueStallLaqFull,
                          &self._issueStallLdqReserved,
                          &self._issueStallSaqFull,
                          &self._fetchStarveCycles, &self._loads,
                          &self._stores, &self._pbrTaken,
                          &self._pbrNotTaken};
    }

    PipelineConfig _cfg;
    FetchUnit &_fetch;
    MemorySystem &_mem;
    RecordStream &_records;
    DataPort _dataPort;

    RegFile _regs;
    ArchQueues _queues;

    std::optional<isa::FetchedInst> _idLatch;
    std::optional<isa::FetchedInst> _issueLatch;

    struct Resolve
    {
        bool taken;
        Addr target;
    };
    std::optional<Resolve> _pendingResolve;

    /**
     * What the last tick did, for the idle skip: whether it left the
     * pipeline as it was (no branch resolution, issue, latch move or
     * take), and if so the stall and class it counted.
     */
    struct IdleTick
    {
        bool idle = false;
        bool starved = false;
        StallReason hazard = StallReason::None;
        obs::CycleClass cls = obs::CycleClass::FetchStarve;
    };
    IdleTick _lastTick;

    bool _halted = false;
    Cycle _haltCycle = 0;
    std::size_t _cursor;
    obs::ProbeBus *_probes = nullptr;
    obs::CpiStack *_cpiStack = nullptr;

    /** Ring of recently issued PCs (forensic snapshots). */
    std::array<Addr, 16> _retiredPcs{};

    /** The ring slot the next issued PC overwrites: its oldest. */
    std::size_t
    ringHead() const
    {
        return _retired.value() % _retiredPcs.size();
    }

    std::uint64_t _memOpSeq = 0;     //!< program order of ld/st ops
    std::uint64_t _loadsAccepted = 0; //!< loads sent to memory
    std::uint64_t _loadsIssued = 0;
    std::uint64_t _loadsDelivered = 0;

    Counter _retired;
    Counter _issueStallRegBusy;
    Counter _issueStallLdqEmpty;
    Counter _issueStallSdqFull;
    Counter _issueStallLaqFull;
    Counter _issueStallLdqReserved;
    Counter _issueStallSaqFull;
    Counter _fetchStarveCycles;
    Counter _loads;
    Counter _stores;
    Counter _pbrTaken;
    Counter _pbrNotTaken;
};

} // namespace pipesim

#endif // PIPESIM_CPU_PIPELINE_HH
