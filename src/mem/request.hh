/**
 * @file
 * Memory request/response types exchanged between the processor-side
 * requesters (the CPU's data queues and the instruction fetch units)
 * and the memory system.
 */

#ifndef PIPESIM_MEM_REQUEST_HH
#define PIPESIM_MEM_REQUEST_HH

#include <cstdint>

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

    /**
     * Extra response latency added by fault injection (set by the
     * memory system at acceptance; 0 when injection is off).
     */
    unsigned extraLatency = 0;

    /** Load value captured at acceptance (memory system internal). */
    Word loadData = 0;
};

/** Serialize a request for a checkpoint. */
inline void
saveMemRequest(StateWriter &w, const MemRequest &req)
{
    w.u32(req.addr);
    w.u32(req.bytes);
    w.b(req.isStore);
    w.u32(req.storeData);
    w.u8(std::uint8_t(req.cls));
    w.u64(req.dataSeq);
    w.u32(req.extraLatency);
    w.u32(req.loadData);
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
    req.extraLatency = r.u32();
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
 * Requests are pulled: each requester exposes at most one candidate
 * request per cycle; when the output bus accepts it the memory system
 * copies it and then calls accepted(), and the requester pops its
 * internal queue.  Responses are pushed back to the client registered
 * for the request's class, each passed the request it answers.
 */
class MemClient
{
  public:
    virtual ~MemClient() = default;

    /**
     * The request this client wants to issue now, or nullptr.  The
     * pointer refers to the client's own storage and stays valid only
     * until the next call into the client.
     */
    virtual const MemRequest *peek() = 0;

    /** The peeked request was accepted this cycle. */
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

    /**
     * Instruction fills only: the transfer was corrupted (an injected
     * fill parity error).  Delivered at end-of-transfer *instead of*
     * complete(); no beat() is delivered for a corrupted transfer, so
     * no corrupt byte ever reaches a cache or the decoder.  The fetch
     * unit is expected to discard its fill state and retry.
     */
    virtual void parityError(const MemRequest &) {}
};

} // namespace pipesim

#endif // PIPESIM_MEM_REQUEST_HH
