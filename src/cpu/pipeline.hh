/**
 * @file
 * The PIPE processor pipeline: Instruction Fetch, Instruction Decode,
 * Instruction Issue, ALU1, ALU2 (paper section 3).
 *
 * The model is execution driven: instructions really execute (ALU
 * results, loads/stores against the backing store, IEEE-754 floating
 * point through the memory-mapped FPU), so kernel outputs can be
 * validated against host references while cycle counts are measured.
 *
 * Timing depends on data values through exactly three channels: a
 * PBR's direction and target, a load/store's effective address, and
 * HALT (which follows from the opcode).  Each issued instruction
 * therefore produces an Outcome from one of two value sources — the
 * executing path computes it, a trace value source reads it from the
 * captured record (docs/trace_replay.md) — and one commit step turns
 * the Outcome into queue, register-timing and branch state.  Trace
 * replay is bit-exact because everything but the value source is the
 * same code.
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
 * which the Livermore recurrences rely on); data returns fill the
 * LDQ strictly in load order.
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

namespace replay
{
struct Trace;
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
     * @param trace Optional trace value source.  Null: instructions
     *              execute.  Non-null: each issued instruction consumes
     *              the next record, from @p firstRecord on, and takes
     *              its effective address and branch outcome from it;
     *              no value is computed.  Which engine builds the
     *              pipeline decides this, not a user option.
     */
    Pipeline(const PipelineConfig &config, FetchUnit &fetch,
             MemorySystem &mem, const replay::Trace *trace = nullptr,
             std::size_t firstRecord = 0);
    ~Pipeline();

    Pipeline(const Pipeline &) = delete;
    Pipeline &operator=(const Pipeline &) = delete;

    /** Advance one cycle (called after the memory and fetch ticks). */
    void tick(Cycle now);

    /** @return true once HALT has issued. */
    bool halted() const { return _halted; }

    /** @return true if all queues have drained after HALT. */
    bool drained() const;

    std::uint64_t instructionsRetired() const { return _retired.value(); }

    /** Cycle at which HALT issued (valid once halted()). */
    Cycle haltCycle() const { return _haltCycle; }

    /**
     * Index of the next instruction of the dynamic stream: under a
     * trace value source, the next unconsumed record.
     */
    std::size_t cursor() const { return _cursor; }

    /** @return true once a trace value source issued every record. */
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
        const MemRequest *peek() override;
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

    /**
     * The value channels of one issued instruction (the Pipe_Op
     * record): computed by the executing path, or read from the trace
     * record, then committed by the same code in execute().
     */
    struct Outcome
    {
        Word result = 0;    //!< ALU result (0 under a trace source)
        Addr memAddr = 0;   //!< effective address of a load/store
        bool taken = false; //!< PBR direction
        Addr target = 0;    //!< PBR target
    };

    StallReason issueHazard(const isa::Instruction &inst, Cycle now) const;
    void execute(const isa::FetchedInst &fi, Cycle now);
    Word readSource(unsigned r);
    Outcome compute(const isa::Instruction &inst, Word a, Word b);
    Outcome traced(const isa::FetchedInst &fi) const;

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
    const replay::Trace *_trace;
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

    /** The data port's candidates, refreshed by every peek. */
    MemRequest _loadReq;
    MemRequest _storeReq;

    bool _halted = false;
    Cycle _haltCycle = 0;
    std::size_t _cursor;
    obs::ProbeBus *_probes = nullptr;
    obs::CpiStack *_cpiStack = nullptr;

    /** Ring of recently issued PCs (forensic snapshots). */
    std::array<Addr, 16> _retiredPcs{};

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
