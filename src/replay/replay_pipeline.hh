/**
 * @file
 * The trace-driven surrogate backend: a cycle-exact timing mirror of
 * cpu/pipeline.hh that consumes trace annotations instead of
 * executing values.
 *
 * Why this is exact (docs/trace_replay.md spells out the argument):
 * the real pipeline's *timing* depends on data values through exactly
 * three channels — a PBR's resolved direction/target, a load/store's
 * effective address, and HALT.  The first two are recorded per
 * instruction in the trace; the third follows from the opcode.  Every
 * other value (ALU results, loaded data, FPU results) can be garbage
 * without perturbing a single cycle: register reads gate only on
 * busy-until timestamps, queue behaviour only on occupancy, the
 * memory system's latencies only on addresses.  The validation
 * harness (tests/test_replay.cc) enforces the mirror invariant
 * against the executing pipeline at every Livermore sweep point.
 *
 * The tick structure, hazard checks, queue updates and data-port
 * protocol below intentionally track Pipeline line for line; when
 * editing one, edit both.
 */

#ifndef PIPESIM_REPLAY_REPLAY_PIPELINE_HH
#define PIPESIM_REPLAY_REPLAY_PIPELINE_HH

#include <iosfwd>
#include <optional>

#include "common/stats.hh"
#include "common/types.hh"
#include "core/fetch_unit.hh"
#include "cpu/pipeline.hh"
#include "cpu/regfile.hh"
#include "isa/instruction.hh"
#include "mem/memory_system.hh"
#include "queue/arch_queues.hh"
#include "replay/trace_format.hh"

namespace pipesim::replay
{

class ReplayPipeline
{
  public:
    /**
     * @param trace  The captured run; records are consumed from
     *               @p firstRecord onward, one per issued instruction.
     * @param firstRecord Starting index (sampled replay restarts
     *               windows mid-trace; 0 for a full replay).
     */
    ReplayPipeline(const PipelineConfig &config, FetchUnit &fetch,
                   MemorySystem &mem, const Trace &trace,
                   std::size_t firstRecord = 0);
    ~ReplayPipeline();

    ReplayPipeline(const ReplayPipeline &) = delete;
    ReplayPipeline &operator=(const ReplayPipeline &) = delete;

    /** Advance one cycle (after the fetch and memory ticks). */
    void tick(Cycle now);

    bool halted() const { return _halted; }
    bool drained() const;
    Cycle haltCycle() const { return _haltCycle; }
    std::uint64_t instructionsRetired() const { return _retired.value(); }

    /** Index of the next unconsumed trace record. */
    std::size_t cursor() const { return _cursor; }

    /** @return true once every record in the trace was issued. */
    bool traceExhausted() const { return _cursor >= _trace.records.size(); }

    void regStats(StatGroup &stats, const std::string &prefix);
    void dumpState(std::ostream &os) const;

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
    class DataPort : public MemClient
    {
      public:
        explicit DataPort(ReplayPipeline &owner) : _owner(owner) {}
        const MemRequest *peek() override;
        void accepted() override;
        void loadData(const MemRequest &req, Word value) override;

      private:
        ReplayPipeline &_owner;
    };

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
    const TraceRecord &recordFor(const isa::FetchedInst &fi);

    const MemRequest *peekDataOp();
    void dataOpAccepted();

    PipelineConfig _cfg;
    FetchUnit &_fetch;
    MemorySystem &_mem;
    const Trace &_trace;
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
    std::size_t _cursor = 0;

    std::uint64_t _memOpSeq = 0;
    std::uint64_t _loadsAccepted = 0;
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

} // namespace pipesim::replay

#endif // PIPESIM_REPLAY_REPLAY_PIPELINE_HH
