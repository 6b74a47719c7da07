/**
 * @file
 * CPI-stack cycle accountant: attributes every simulated cycle to
 * exactly one cause, so a run's cycle count decomposes into an
 * additive stack (the presentation style of fetch-bottleneck studies:
 * base issue work at the bottom, then each loss category on top).
 *
 * Invariants (asserted by the observability tests):
 *  - issue + fetch_starve + load_data_wait + queue_full + reg_busy +
 *    bus_contention == SimResult::totalCycles (the halt cycle), and
 *  - adding drain gives the total number of simulated ticks.
 *
 * The pipeline classifies each tick (see obs::CycleClass) and feeds
 * the class to account() at the end of the tick, together with the
 * memory system's per-tick demand-fetch contention flag; the
 * accountant refines FetchStarve into BusContention when that flag is
 * set, attributing starvation to output-bus/memory contention rather
 * than to cache misses alone.
 */

#ifndef PIPESIM_OBS_CPI_STACK_HH
#define PIPESIM_OBS_CPI_STACK_HH

#include <array>
#include <string>

#include "common/state_io.hh"
#include "common/stats.hh"
#include "obs/probe.hh"

namespace pipesim::obs
{

class CpiStack
{
  public:
    /**
     * Attribute one tick of class @p cls; @p fetchContended turns a
     * FetchStarve tick into BusContention.
     */
    void
    account(CycleClass cls, bool fetchContended)
    {
        if (cls == CycleClass::FetchStarve && fetchContended)
            cls = CycleClass::BusContention;
        ++_components[unsigned(cls)];
    }

    /** Cycles attributed to @p cls so far. */
    std::uint64_t component(CycleClass cls) const;

    /** Sum of every component except Drain (== totalCycles). */
    std::uint64_t accountedCycles() const;

    /** Sum of every component including Drain (== ticks simulated). */
    std::uint64_t totalTicks() const;

    /**
     * Register one counter per component under @p prefix
     * ("<prefix>.issue", "<prefix>.fetch_starve", ...), so every
     * binary that dumps a StatGroup or a SimResult reports the stack
     * for free.
     */
    void regStats(StatGroup &stats, const std::string &prefix);

    /** Render the breakdown as an aligned table with percentages. */
    std::string table() const;

    /** Checkpoint the components (Simulator::saveState). */
    void saveState(StateWriter &w) const;
    void restoreState(StateReader &r);

  private:
    std::array<Counter, numCycleClasses> _components;
};

} // namespace pipesim::obs

#endif // PIPESIM_OBS_CPI_STACK_HH
