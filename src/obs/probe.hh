/**
 * @file
 * The observability probe bus: typed probe points the core simulation
 * components (pipeline, fetch unit, caches, memory system) emit into,
 * and that consumers (CPI-stack accountant, trace exporters, the
 * pipeline viewer) attach listeners to.
 *
 * The design follows the gem5 probe idiom: emission is effectively
 * free when nothing is listening.  notify() is inlined and reduces to
 * a single empty-vector test on the fast path, so the core model can
 * emit unconditionally without measurable slowdown (guarded by the
 * micro_simspeed benchmark).  Call sites that would pay to *build* an
 * event should additionally guard on active().
 *
 * Listeners are synchronous: they run inside the emitting component's
 * tick, in connection order.  They must not mutate simulation state.
 * A listener handle from connect() can be disconnect()ed; listeners
 * must be disconnected before the bus (i.e. the Simulator) dies.
 */

#ifndef PIPESIM_OBS_PROBE_HH
#define PIPESIM_OBS_PROBE_HH

#include <cstdint>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "isa/instruction.hh"
#include "mem/request.hh"

namespace pipesim::obs
{

/**
 * One typed probe point.  Components own emission; any number of
 * listeners may connect.
 */
template <typename Event>
class ProbePoint
{
  public:
    using Listener = std::function<void(const Event &)>;
    using ListenerId = std::size_t;

    /** Attach @p fn; @return a handle for disconnect(). */
    ListenerId
    connect(Listener fn)
    {
        const ListenerId id = _nextId++;
        _listeners.push_back(Entry{id, std::move(fn)});
        return id;
    }

    /** Detach a listener previously attached with connect(). */
    void
    disconnect(ListenerId id)
    {
        for (auto it = _listeners.begin(); it != _listeners.end(); ++it) {
            if (it->id == id) {
                _listeners.erase(it);
                return;
            }
        }
    }

    /** @return true if at least one listener is attached. */
    bool active() const { return !_listeners.empty(); }

    /** Emit @p ev to every listener (no-op when none is attached). */
    void
    notify(const Event &ev)
    {
        if (_listeners.empty())
            return;
        for (const Entry &e : _listeners)
            e.fn(ev);
    }

  private:
    struct Entry
    {
        ListenerId id;
        Listener fn;
    };

    std::vector<Entry> _listeners;
    ListenerId _nextId = 0;
};

/**
 * Where one pipeline cycle went.  The pipeline classifies every tick
 * into exactly one of these, so the classes partition simulated time;
 * the CPI-stack accountant turns the partition into a breakdown.
 *
 * The tick on which HALT issues is classified Drain (it marks the
 * start of the post-halt drain phase), so the non-Drain classes sum
 * exactly to SimResult::totalCycles and all classes together sum to
 * the total number of simulated ticks.
 */
enum class CycleClass : std::uint8_t
{
    Issue,        //!< an instruction issued (base CPI component)
    FetchStarve,  //!< the frontend had nothing to issue
    LoadDataWait, //!< issue read r7 while the LDQ was empty
    QueueFull,    //!< issue blocked on a full LAQ/SAQ/SDQ/LDQ window
    RegBusy,      //!< issue blocked on an in-flight ALU result
    BusContention,//!< fetch starve caused by a blocked demand fetch
                  //!< (assigned by the accountant, never the pipeline)
    Drain,        //!< at/after HALT issue: queues draining
};

inline constexpr unsigned numCycleClasses = 7;

/** Stable lower-case name for a cycle class (stat/trace keys). */
const char *cycleClassName(CycleClass cls);

/** Pipeline: one per tick, the class this cycle was attributed to. */
struct CycleClassEvent
{
    Cycle cycle;
    CycleClass cls;
};

/**
 * Pipeline: one per issued (retired) instruction.
 *
 * The annotation fields carry the outcomes that cannot be re-derived
 * from the program image alone — the effective address of a
 * load/store and the resolved direction/target of a PBR — as the
 * instruction's record (replay::TraceRecord) holds them.
 */
struct RetireEvent
{
    Cycle cycle;
    isa::FetchedInst inst;

    bool hasMemAddr = false;   //!< inst is a load/store; memAddr valid
    bool memIsStore = false;   //!< the memory op pushes the SAQ
    Addr memAddr = 0;          //!< effective address (loads/stores)
    bool hasBranch = false;    //!< inst is a PBR; taken/target valid
    bool branchTaken = false;  //!< resolved direction
    Addr branchTarget = 0;     //!< resolved target (branch register)
};

/** Fetch unit: an off-chip line request or a completed line fill. */
struct FetchEvent
{
    Cycle cycle;
    Addr addr;
    unsigned bytes;
    bool demand; //!< demand-class (vs. prefetch-class) request
};

/** Fetch unit: an instruction-supply storage lookup. */
struct CacheEvent
{
    Cycle cycle;
    Addr addr;
    bool hit;
};

/** Memory system: a request won the output bus this cycle. */
struct BusGrantEvent
{
    Cycle cycle;
    ReqClass cls;
    Addr addr;
    bool store;
};

/** Memory system: a request was presented but the memory was busy. */
struct BusContentionEvent
{
    Cycle cycle;
    ReqClass cls;
};

/** Pipeline: per-cycle architectural queue occupancies. */
struct QueueSampleEvent
{
    Cycle cycle;
    std::uint8_t laq;
    std::uint8_t ldq;
    std::uint8_t saq;
    std::uint8_t sdq;
};

/**
 * The full set of probe points one simulated machine exposes.  Owned
 * by the Simulator; components receive a pointer at construction
 * time and emit into it for the lifetime of the run.
 */
struct ProbeBus
{
    ProbePoint<CycleClassEvent> cycleClass;
    ProbePoint<RetireEvent> retire;
    ProbePoint<FetchEvent> fetchRequest;
    ProbePoint<FetchEvent> fetchFill;
    ProbePoint<CacheEvent> icacheAccess;
    ProbePoint<BusGrantEvent> busGrant;
    ProbePoint<BusContentionEvent> busContention;
    ProbePoint<QueueSampleEvent> queueSample;

    /** True if any point has a listener. */
    bool
    anyActive() const
    {
        return cycleClass.active() || retire.active() ||
               fetchRequest.active() || fetchFill.active() ||
               icacheAccess.active() || busGrant.active() ||
               busContention.active() || queueSample.active();
    }
};

} // namespace pipesim::obs

#endif // PIPESIM_OBS_PROBE_HH
