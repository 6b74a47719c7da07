/**
 * @file
 * The off-chip memory-mapped floating-point unit.
 *
 * PIPE has no on-chip multiply hardware; the paper attaches an
 * external floating point chip that "is addressed as a memory
 * location, so that a pair of data stores to the appropriate
 * locations will cause a multiply to occur".  The result is read back
 * with an ordinary load and shares the input (return) bus with the
 * external cache.
 *
 * Address map (one 16-byte window per operation kind):
 *
 *     baseAddr + kind*16 + 0   operand A (store)
 *     baseAddr + kind*16 + 4   operand B (store; starts the op)
 *     baseAddr + kind*16 + 8   result    (load; blocks until ready)
 *
 * Operands and results are IEEE-754 single precision bit patterns.
 * The op latency is fixed (4 cycles in the paper); the device is
 * fully pipelined, and results of one kind are consumed in FIFO
 * order.  The A latch persists between operations.
 */

#ifndef PIPESIM_MEM_FPU_HH
#define PIPESIM_MEM_FPU_HH

#include <array>
#include <deque>
#include <optional>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/request.hh"

namespace pipesim
{

/** Floating point operation kinds supported by the device. */
enum class FpuOp : unsigned
{
    Add = 0,
    Sub = 1,
    Mul = 2,
    Div = 3,
    NumOps,
};

class FpuDevice
{
  public:
    /**
     * Base of the device's address window.  Kept below 32 KiB so
     * generated code can address the device with a sign-extended
     * 16-bit displacement off the zero register.
     */
    static constexpr Addr baseAddr = 0x00007F00;
    /** Bytes of address window per operation kind. */
    static constexpr Addr kindStride = 16;

    static Addr opA(FpuOp op) { return baseAddr + unsigned(op) * kindStride; }
    static Addr opB(FpuOp op) { return opA(op) + 4; }
    static Addr opResult(FpuOp op) { return opA(op) + 8; }

    /** @return true if @p addr falls in the device window. */
    static bool
    contains(Addr addr)
    {
        return addr >= baseAddr &&
               addr < baseAddr + unsigned(FpuOp::NumOps) * kindStride;
    }

    /** The operation kind of an address in the device window. */
    static FpuOp kindOf(Addr addr);

    /** The byte offset of @p addr within its kind's window. */
    static unsigned offsetOf(Addr addr);

    /**
     * The IEEE-754 single-precision result of @p kind on the operand
     * bit patterns @p a and @p b (the device's one arithmetic, shared
     * with the functional executor).
     */
    static Word compute(FpuOp kind, Word a, Word b);

    /** @param latency Cycles from operand-B store to result ready. */
    explicit FpuDevice(Cycle latency = 4);

    /** Handle a store accepted on the output bus. */
    void store(Addr addr, Word data, Cycle now);

    /** Queue a result load accepted on the output bus. */
    void queueRead(const MemRequest &req, Cycle now);

    /**
     * The oldest queued read whose result is available at @p now,
     * if any, together with the result value.  @c req points into the
     * device's read queue and is valid until the queue changes.
     */
    struct ReadyRead
    {
        const MemRequest *req;
        Word value;
    };
    std::optional<ReadyRead> peekReady(Cycle now) const;

    /** Consume the response returned by the last peekReady(). */
    void popReady(Cycle now);

    /** @return number of reads waiting for results. */
    std::size_t pendingReads() const { return _pendingReads; }

    /**
     * The first cycle after @p last at which a result becomes ready,
     * or neverCycle.
     */
    Cycle nextEvent(Cycle last) const;

    void regStats(StatGroup &stats, const std::string &prefix);

    Cycle latency() const { return _latency; }

    /** Serialize for a checkpoint; read dataSeqs relative to
     *  @p dataSeqBase (see saveMemRequest). */
    void saveState(StateWriter &w, std::uint64_t dataSeqBase) const
    {
        for (Word a : _latchA)
            w.dataWord(a);
        for (const auto &kind : _results) {
            w.u32(std::uint32_t(kind.size()));
            for (const Result &res : kind) {
                // Compared only as readyAt > now.
                w.stamp(res.readyAt);
                w.dataWord(res.value);
            }
        }
        for (const auto &kind : _reads) {
            w.u32(std::uint32_t(kind.size()));
            for (const PendingRead &pr : kind)
                saveMemRequest(w, pr.req, dataSeqBase);
        }
        w.count(_opsStarted.value());
        w.count(_resultsReturned.value());
    }

    void restoreState(StateReader &r)
    {
        for (Word &a : _latchA)
            a = r.u32();
        for (auto &kind : _results) {
            kind.clear();
            const std::uint32_t n = r.u32();
            for (std::uint32_t i = 0; i < n; ++i) {
                Result res;
                res.readyAt = r.u64();
                res.value = r.u32();
                kind.push_back(res);
            }
        }
        _pendingReads = 0;
        for (auto &kind : _reads) {
            kind.clear();
            const std::uint32_t n = r.u32();
            _pendingReads += n;
            for (std::uint32_t i = 0; i < n; ++i) {
                PendingRead pr;
                pr.req = restoreMemRequest(r);
                kind.push_back(std::move(pr));
            }
        }
        _opsStarted.set(r.u64());
        _resultsReturned.set(r.u64());
    }

  private:
    struct Result
    {
        Cycle readyAt;
        Word value;
    };

    struct PendingRead
    {
        MemRequest req;
    };

    Cycle _latency;
    std::array<Word, unsigned(FpuOp::NumOps)> _latchA{};
    std::array<std::deque<Result>, unsigned(FpuOp::NumOps)> _results;
    std::array<std::deque<PendingRead>, unsigned(FpuOp::NumOps)> _reads;
    /** Reads queued across every kind, so an idle device scans none. */
    std::size_t _pendingReads = 0;

    Counter _opsStarted;
    Counter _resultsReturned;
};

} // namespace pipesim

#endif // PIPESIM_MEM_FPU_HH
