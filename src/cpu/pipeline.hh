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
    Pipeline(const PipelineConfig &config, FetchUnit &fetch,
             MemorySystem &mem);
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

    StallReason issueHazard(const isa::Instruction &inst, Cycle now) const;
    void execute(const isa::FetchedInst &fi, Cycle now);
    Word readSource(unsigned r);

    const MemRequest *peekDataOp();
    void dataOpAccepted();

    PipelineConfig _cfg;
    FetchUnit &_fetch;
    MemorySystem &_mem;
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
     * Trace-relevant outcomes of the most recent execute(), copied
     * into the RetireEvent emitted for that instruction (the effective
     * address and branch resolution are computed inside execute() and
     * are otherwise invisible to listeners).
     */
    struct ExecAnnotation
    {
        bool hasMemAddr = false;
        bool memIsStore = false;
        Addr memAddr = 0;
        bool hasBranch = false;
        bool branchTaken = false;
        Addr branchTarget = 0;
    };
    ExecAnnotation _execNote;

    /** The data port's candidates, refreshed by every peek. */
    MemRequest _loadReq;
    MemRequest _storeReq;

    bool _halted = false;
    Cycle _haltCycle = 0;
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
