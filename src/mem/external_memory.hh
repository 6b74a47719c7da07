/**
 * @file
 * Timing model of the external memory.
 *
 * The paper models memory as "a large external cache that services
 * both instruction and data requests" with a 100% hit rate, a
 * configurable access time (1, 2, 3 or 6 processor cycles) and an
 * optional pipelined mode in which "the memory system can accept a
 * new request each clock cycle".  In non-pipelined mode a new request
 * cannot begin until the previous one finishes, including its data
 * transfer over the input bus.
 *
 * This class models occupancy and latency only; data contents live in
 * DataMemory, and bus transfer is handled by MemorySystem.
 */

#ifndef PIPESIM_MEM_EXTERNAL_MEMORY_HH
#define PIPESIM_MEM_EXTERNAL_MEMORY_HH

#include <algorithm>
#include <deque>
#include <iosfwd>

#include "common/stats.hh"
#include "common/types.hh"
#include "mem/request.hh"

namespace pipesim
{

class ExternalMemory
{
  public:
    /**
     * @param access_time Cycles from acceptance until the first beat
     *                    of the response can appear on the input bus.
     * @param pipelined   Accept one new request per cycle when true.
     */
    ExternalMemory(unsigned access_time, bool pipelined);

    /**
     * @return true if a new request may be accepted this cycle.
     *
     * Non-pipelined memory requires the unit to be completely idle:
     * no in-flight request and no response still transferring on the
     * input bus (the caller reports transfer state via
     * setTransferring()).
     */
    bool canAccept() const;

    /** Accept a request; readiness is @p now + access time. */
    void accept(const MemRequest &req, Cycle now);

    /**
     * Retire completed stores from the head of the in-flight queue
     * (stores need no bus transfer and complete silently).
     * @return true if a store retired.
     */
    bool tick(Cycle now);

    /**
     * The first cycle after @p last at which the head request becomes
     * ready (a store retires, a response may start its transfer), or
     * neverCycle.
     */
    Cycle
    nextEvent(Cycle last) const
    {
        if (_inflight.empty() || _inflight.front().readyAt <= last)
            return neverCycle;
        return _inflight.front().readyAt;
    }

    /** Account @p n skipped ticks that changed nothing. */
    void
    repeatIdleTick(Cycle n)
    {
        if (!_inflight.empty())
            _busyCycles += n;
    }

    /**
     * The in-flight load/ifetch at the head of the queue if its data
     * is ready at @p now, else nullptr.  Responses leave strictly in
     * acceptance order.  The pointer is valid until the queue changes.
     */
    const MemRequest *peekReady(Cycle now) const;

    /** Remove the head response (it began its bus transfer). */
    MemRequest popReady(Cycle now);

    /** The caller notes whether a response of ours is on the bus. */
    void setTransferring(bool t) { _transferring = t; }

    bool idle() const { return _inflight.empty() && !_transferring; }
    std::size_t inflightCount() const { return _inflight.size(); }

    unsigned accessTime() const { return _accessTime; }
    bool pipelined() const { return _pipelined; }

    /** Data stores in flight. */
    std::size_t
    dataStores() const
    {
        return std::size_t(std::count_if(
            _inflight.begin(), _inflight.end(), [](const InFlight &f) {
                return f.req.cls == ReqClass::Data && f.req.isStore;
            }));
    }

    /**
     * Give each in-flight data request the address @p addrOf returns
     * for it, told how many data stores follow it in the queue (after
     * a loop-memo skip; see Pipeline::resyncDataAddrs).
     */
    template <class AddrOf>
    void
    retargetData(AddrOf &&addrOf)
    {
        std::size_t storesAfter = 0;
        for (auto f = _inflight.rbegin(); f != _inflight.rend(); ++f) {
            if (f->req.cls != ReqClass::Data)
                continue;
            f->req.addr = addrOf(f->req, storesAfter);
            storesAfter += f->req.isStore;
        }
    }

    /** Write the in-flight queue state (forensic snapshots). */
    void dumpState(std::ostream &os) const;

    void regStats(StatGroup &stats, const std::string &prefix);

    /** Serialize timing state for a checkpoint; data requests'
     *  dataSeqs relative to @p dataSeqBase (see saveMemRequest). */
    void saveState(StateWriter &w, std::uint64_t dataSeqBase) const
    {
        w.b(_transferring);
        w.u32(std::uint32_t(_inflight.size()));
        for (const InFlight &f : _inflight) {
            saveMemRequest(w, f.req, dataSeqBase);
            // Compared only as readyAt <= now (tick, peekReady) and
            // readyAt <= last (nextEvent).
            w.stamp(f.readyAt);
        }
        w.count(_reads.value());
        w.count(_writes.value());
        w.count(_busyCycles.value());
    }

    void restoreState(StateReader &r)
    {
        _transferring = r.b();
        _inflight.clear();
        const std::uint32_t n = r.u32();
        for (std::uint32_t i = 0; i < n; ++i) {
            InFlight f;
            f.req = restoreMemRequest(r);
            f.readyAt = r.u64();
            _inflight.push_back(std::move(f));
        }
        _reads.set(r.u64());
        _writes.set(r.u64());
        _busyCycles.set(r.u64());
    }

  private:
    struct InFlight
    {
        MemRequest req;
        Cycle readyAt;
    };

    unsigned _accessTime;
    bool _pipelined;
    bool _transferring = false;
    std::deque<InFlight> _inflight;

    Counter _reads;
    Counter _writes;
    Counter _busyCycles;
};

} // namespace pipesim

#endif // PIPESIM_MEM_EXTERNAL_MEMORY_HH
