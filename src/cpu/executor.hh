/**
 * @file
 * The functional executor, the one source of architectural values,
 * and the record stream through which the timing model reads them.
 *
 * The executor runs a Program sequentially, with no timing, and emits
 * one replay::TraceRecord per instruction.  It keeps the registers
 * with their RSW banks, the branch registers, PBR delay slots (a
 * StreamFollower, as the fetch side counts them), the LAQ/SAQ/SDQ/LDQ
 * FIFOs and the memory-mapped FPU.  Its values equal a timed run's:
 * the timing model issues in order and accepts data requests in
 * program order (MemorySystem::tryAccept), so a load sees exactly the
 * stores before it, and the FPU pairs each kind's results with its
 * result reads in order.  So a memory operation completes here as
 * soon as it heads the program-order queue and, for a store, its data
 * exists (docs/internals.md, "Functional executor").
 *
 * It never throws.  Where it cannot continue (an r7 read whose value
 * can never arrive, a pc that does not decode, a data access outside
 * the backing store, anything after HALT) its stream ends, and the
 * timing model raises what it raises for that program.
 */

#ifndef PIPESIM_CPU_EXECUTOR_HH
#define PIPESIM_CPU_EXECUTOR_HH

#include <algorithm>
#include <array>
#include <deque>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/stream_follower.hh"
#include "cpu/regfile.hh"
#include "mem/fpu.hh"
#include "replay/trace_format.hh"

namespace pipesim
{

class DataMemory;
class Program;

class Executor
{
  public:
    /** Execute @p program over @p mem, which holds its image. */
    Executor(const Program &program, DataMemory &mem);

    /** Execute the next instruction into @p rec; false once ended. */
    bool step(replay::TraceRecord &rec);

    /** Records emitted so far. */
    std::size_t position() const { return _position; }
    bool halted() const { return _halted; }
    /** Why the stream ended; empty while it runs. */
    const std::string &endReason() const { return _end; }

    /**
     * The records below @p record are consumed: their stores reach the
     * memory, now and, for records still to execute, as they run.  The
     * stores of later records wait, and loads see them.
     */
    void
    commit(std::size_t record)
    {
        _commitBelow = std::max(_commitBelow, record);
        while (!_pending.empty() && _pending.front().record < _commitBelow)
            applyOldest();
    }

    std::size_t committed() const { return _commitBelow; }

  private:
    /** A store to memory, made by record @p record. */
    struct Write
    {
        std::size_t record;
        Addr addr;
        Word value;
    };

    /** An issued load or store, not yet complete. */
    struct MemOp
    {
        Addr addr;
        bool isStore;
    };

    /** Per FPU kind: the A latch, unread results, waiting LDQ slots. */
    struct FpuKind
    {
        Word latchA = 0;
        std::deque<Word> results;
        std::deque<std::optional<Word> *> reads;
    };

    /** The instruction at @p pc, or nullptr where none decodes. */
    const isa::Instruction *decodeAt(Addr pc);

    /** Complete memory operations in program order while they can. */
    void drain();

    Word load(Addr addr) const;
    void applyOldest();

    const Program &_program;
    DataMemory &_mem;
    /** Decoded code image, one slot per parcel; 0 parcels: not yet. */
    std::vector<isa::Instruction> _decoded;
    /** What the fetch side decodes past the code image. */
    isa::Instruction _pastEnd;

    StreamFollower _stream;
    RegFile _regs;
    std::deque<MemOp> _memOps;
    std::deque<Word> _sdq;
    /** Load data in load order; nullopt: an FPU result not yet paired. */
    std::deque<std::optional<Word>> _ldq;
    std::array<FpuKind, unsigned(FpuOp::NumOps)> _fpu;

    std::deque<Write> _pending; //!< stores of unconsumed records
    std::size_t _commitBelow = 0;
    std::size_t _position = 0;
    bool _halted = false;
    std::string _end;
};

/**
 * The records a Pipeline issues and a LoopMemo compares, by index: a
 * captured trace's vector, read in place, or a window that an
 * Executor fills on demand.  The window releases records behind both
 * the pipeline and what the memo can still compare against.
 */
class RecordStream
{
  public:
    /**
     * How far behind the consumed records a window keeps what the memo
     * asks for: a longer period than half this is not looked for.
     */
    static constexpr std::size_t lookBack = std::size_t(1) << 16;

    explicit RecordStream(const replay::Trace &trace);
    RecordStream(const Program &program, DataMemory &mem);
    ~RecordStream();

    /** Record @p i, or nullptr past the stream's end or behind it. */
    const replay::TraceRecord *
    at(std::size_t i)
    {
        if (i - _base < _count)
            return &_data[i & _mask];
        return fill(i);
    }

    /** The records below @p i are consumed (see Executor::commit). */
    void
    consume(std::size_t i)
    {
        if (_exec)
            _exec->commit(i);
    }

    /** The loop memo may still read the records from @p i on. */
    void keepFrom(std::size_t i) { _keep = i; }

    /**
     * Reposition at record @p i, consuming everything before it: an
     * executor runs forward to it, or from the entry over the reloaded
     * image if it lies behind the consumed records.  @return false if
     * the stream ends first.
     */
    bool seek(std::size_t i);

    /** The trace read in place, or nullptr under an executor. */
    const replay::Trace *trace() const { return _trace; }

    /** Why an executor's stream ended (empty while it runs). */
    std::string endReason() const;

  private:
    const replay::TraceRecord *fill(std::size_t i);

    const replay::Trace *_trace = nullptr;
    const Program *_program = nullptr;
    DataMemory *_mem = nullptr;
    std::unique_ptr<Executor> _exec;
    std::vector<replay::TraceRecord> _ring; //!< power-of-two size

    // The records [_base, _base + _count); record i at _data[i & _mask].
    const replay::TraceRecord *_data = nullptr;
    std::size_t _mask = ~std::size_t(0);
    std::size_t _base = 0;
    std::size_t _count = 0;
    std::size_t _keep = ~std::size_t(0);
};

} // namespace pipesim

#endif // PIPESIM_CPU_EXECUTOR_HH
