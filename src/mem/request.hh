/**
 * @file
 * Memory request/response types exchanged between the processor-side
 * requesters (the CPU's data queues and the instruction fetch units)
 * and the memory system.
 */

#ifndef PIPESIM_MEM_REQUEST_HH
#define PIPESIM_MEM_REQUEST_HH

#include <cstdint>
#include <optional>

#include "common/state_io.hh"
#include "common/types.hh"

namespace pipesim
{

/**
 * Arbitration class of a request.  The paper's simulation model
 * "gives precedence to data and instruction loads and stores,
 * followed by multiply results, with instruction prefetches having
 * lowest priority"; additionally the presented results give demand
 * instruction fetches priority over data requests (configurable).
 */
enum class ReqClass : unsigned char
{
    Data,          //!< architectural load/store (LAQ/SAQ drain)
    IFetchDemand,  //!< instruction fetch the decoder is waiting on
    IPrefetch,     //!< speculative instruction prefetch
};

/**
 * One request presented to the memory interface: plain data.
 *
 * Loads and instruction fetches produce response beats on the input
 * bus; stores complete silently.  The memory system hands every
 * response back to the client registered for the request's class
 * (see MemClient), so a request carries no reference to its owner and
 * checkpoints restore in-flight requests as they are.
 */
struct MemRequest
{
    Addr addr = 0;
    unsigned bytes = 0;
    bool isStore = false;
    Word storeData = 0;
    ReqClass cls = ReqClass::Data;

    /**
     * Program-order sequence number for Data-class requests.  The
     * memory system delivers data-load responses strictly in this
     * order so the Load Data Queue (a FIFO the programmer reads as
     * r7) fills correctly.
     */
    std::uint64_t dataSeq = 0;

    /** Load value captured at acceptance (memory system internal). */
    Word loadData = 0;

    bool operator==(const MemRequest &) const = default;
};

/**
 * Serialize a request for a checkpoint.  A Data-class request's
 * address is a data address, and a load's dataSeq a sequence number
 * relative to @p dataSeqBase; an instruction fetch's address and a
 * store's dataSeq (never read) are exact.
 */
inline void
saveMemRequest(StateWriter &w, const MemRequest &req,
               std::uint64_t dataSeqBase = 0)
{
    const bool data = req.cls == ReqClass::Data;
    if (data)
        w.dataAddr(req.addr);
    else
        w.u32(req.addr);
    w.u32(req.bytes);
    w.b(req.isStore);
    w.dataWord(req.storeData);
    w.u8(std::uint8_t(req.cls));
    if (data && !req.isStore)
        w.seq(req.dataSeq, dataSeqBase);
    else
        w.u64(req.dataSeq);
    w.dataWord(req.loadData);
}

/** Rebuild a request written by saveMemRequest(). */
inline MemRequest
restoreMemRequest(StateReader &r)
{
    MemRequest req;
    req.addr = r.u32();
    req.bytes = r.u32();
    req.isStore = r.b();
    req.storeData = r.u32();
    const std::uint8_t cls = r.u8();
    if (cls > std::uint8_t(ReqClass::IPrefetch))
        r.fail("request class holds ", unsigned(cls));
    req.cls = ReqClass(cls);
    req.dataSeq = r.u64();
    req.loadData = r.u32();
    return req;
}

/** Stable lower-case name for a request class (reports, traces). */
constexpr const char *
reqClassName(ReqClass cls)
{
    switch (cls) {
      case ReqClass::Data: return "data";
      case ReqClass::IFetchDemand: return "ifetch_demand";
      case ReqClass::IPrefetch: return "iprefetch";
    }
    return "unknown";
}

/**
 * The interface between a requester and the memory system.
 *
 * Requests are posted: each requester owns one request slot holding
 * the request it presents now, if any, and rewrites it whenever that
 * changes (post(), withdraw()).  The memory system reads the slots
 * directly when it arbitrates; when the output bus accepts a slot's
 * request it copies it and then calls accepted(), and the requester
 * pops its internal queue and posts its next request.  Every slot
 * change marks the memory system posted, which is how a memory tick
 * that would repeat an idle one knows it may be skipped
 * (docs/internals.md, "Tick gating").  Responses are pushed back to
 * the client registered for the request's class, each passed the
 * request it answers.
 */
class MemClient
{
  public:
    virtual ~MemClient() = default;

    /** The request this client presents now, or nullptr. */
    const MemRequest *request() const { return _slot ? &*_slot : nullptr; }

    /** The posted request was accepted this cycle. */
    virtual void accepted() = 0;

    /**
     * One input-bus beat of the request's response: the bytes at
     * [base address, base address + bytes).
     */
    virtual void beat(const MemRequest &, Addr, unsigned) {}

    /**
     * A data load's value, in program (dataSeq) order.  The value was
     * captured when the memory serviced the request, preserving
     * program-order memory semantics.
     */
    virtual void loadData(const MemRequest &, Word) {}

    /** The request's response finished (after its final beat). */
    virtual void complete(const MemRequest &) {}

  protected:
    /** Present @p req from now on, replacing any posted request. */
    void
    post(const MemRequest &req)
    {
        if (_slot && *_slot == req)
            return;
        _slot = req;
        notePosted();
    }

    /** Present nothing from now on. */
    void
    withdraw()
    {
        if (!_slot)
            return;
        _slot.reset();
        notePosted();
    }

  private:
    friend class MemorySystem;

    void
    notePosted()
    {
        if (_posted)
            *_posted = true;
    }

    std::optional<MemRequest> _slot;
    /** The registered memory system's posted flag, or nullptr. */
    bool *_posted = nullptr;
};

} // namespace pipesim

#endif // PIPESIM_MEM_REQUEST_HH
