/**
 * @file
 * Trace-driven simulation: replay a captured instruction stream
 * through any machine configuration, without executing values.
 *
 * Two modes (docs/trace_replay.md documents the guarantees):
 *
 *  - Exact (samplePeriod == 0): a Simulator whose pipeline takes
 *    its effective addresses and branch outcomes from the trace
 *    instead of executing.  Miss counts, stall counters, the CPI
 *    stack and the cycle count are bit-exact against the cycle
 *    engine for the same config — enforced by tests/test_replay.cc
 *    across the full Livermore sweep grid.
 *
 *  - Sampled (samplePeriod > 0): SMARTS-style systematic sampling.
 *    Every samplePeriod instructions a fresh machine replays
 *    sampleWarmup instructions of detailed warm-up followed by
 *    sampleMeasure measured instructions; the run's CPI is estimated
 *    from the measured windows and the total cycle count
 *    extrapolated.  Windows begin only at architectural sync points
 *    (no load data or store data crossing the window boundary), so a
 *    window can never deadlock on queue state it did not observe.
 *
 * Everything that depends on the trace and not on the machine is
 * done once, by PreparedReplay: the program-hash check, the
 * empty-trace and sampling-parameter checks, and, when sampling, the
 * sync-point scan and the window plan.  Its replay(config) only
 * builds and runs machines, so a sweep prepares its trace once and
 * every point (on any worker) shares the prepared object; replayTrace
 * is "prepare, then replay one config".
 *
 * Sampled replay is plan/execute split: planSampleWindows() first
 * enumerates the (deduplicated) measurement windows, then the windows
 * run as independent jobs, serially or on a thread pool (jobs > 1).
 * Results accumulate in plan order, so every job count produces
 * bit-identical estimates.
 */

#ifndef PIPESIM_REPLAY_REPLAY_ENGINE_HH
#define PIPESIM_REPLAY_REPLAY_ENGINE_HH

#include <cstddef>
#include <vector>

#include "replay/trace_format.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"

namespace pipesim::replay
{

/** How to replay; default is the exact mode. */
struct ReplayOptions
{
    /**
     * Sampling period in instructions; 0 selects the exact mode.
     * Must be >= sampleWarmup + sampleMeasure when nonzero.
     */
    unsigned samplePeriod = 0;
    unsigned sampleWarmup = 300;  //!< detailed warm-up per window
    unsigned sampleMeasure = 700; //!< measured instructions per window

    /**
     * Worker threads for sampled windows (0 resolves like --jobs:
     * PIPESIM_JOBS, then hardware concurrency).  Results are
     * bit-identical for any value.  Ignored by the exact mode.
     */
    unsigned jobs = 1;
};

/**
 * One planned sampling window, in trace record indices:
 * [start, warmEnd) is detailed warm-up, [warmEnd, measureEnd) is
 * measured.  start is always a sync point.
 */
struct SampleWindow
{
    std::size_t start = 0;
    std::size_t warmEnd = 0;
    std::size_t measureEnd = 0;

    bool operator==(const SampleWindow &other) const = default;
};

/**
 * Record indices where a fresh machine can pick up the trace without
 * depending on state produced before the cut: the architectural
 * queues are provably empty, no FPU operation is in flight, and the
 * index is not inside a taken PBR's delay-slot shadow.
 */
std::vector<std::size_t> computeSyncPoints(const Program &program,
                                           const Trace &trace);

/**
 * Enumerate the sampling windows for a trace of @p totalRecords
 * records: each period target rounds up to the next sync point, warm
 * and measured spans clamp to the trace end, and a target that lands
 * on an already-planned sync point is dropped (sparse sync points
 * would otherwise measure the same window twice, double-weighting it
 * in the CPI estimator).  Pure function of its arguments — the same
 * plan drives serial and pooled execution.
 */
std::vector<SampleWindow>
planSampleWindows(std::size_t totalRecords,
                  const std::vector<std::size_t> &syncPoints,
                  const ReplayOptions &opt);

/**
 * A trace checked and planned for replay through any machine
 * configuration.  Immutable once built: replay() is const and may run
 * on many threads at once.  It refers to @p program and @p trace,
 * which must outlive it.
 */
class PreparedReplay
{
  public:
    /**
     * Check that @p trace replays @p program, and, when @p options
     * samples, check the windowing, scan the sync points and plan the
     * windows.
     *
     * @throws FatalError when the trace was not captured from
     *         @p program (hash mismatch, or a record naming a pc that
     *         does not decode), when it holds no records, when the
     *         sampling parameters cannot form a window, or when no
     *         window fits in the trace.
     */
    PreparedReplay(const Program &program, const Trace &trace,
                   const ReplayOptions &options = {});

    /**
     * Replay the trace through the machine described by @p config.
     *
     * The result's counters use the same names as the cycle
     * simulator's; result.meta records the engine, the trace and
     * program hashes, and (when sampling) the window parameters and
     * the CPI confidence interval ("n/a" when fewer than two windows
     * were measured).
     *
     * @throws FatalError when the trace diverges from the program
     *         during the run.
     * @throws SimAbort on the same watchdogs as the cycle simulator.
     */
    SimResult replay(const SimConfig &config) const;

  private:
    SimResult replayExact(const SimConfig &config) const;
    SimResult replaySampled(const SimConfig &config) const;

    const Program &_program;
    const Trace &_trace;
    const ReplayOptions _options;
    /** The sampling windows; empty in the exact mode. */
    const std::vector<SampleWindow> _plan;
};

/**
 * Replay @p trace through the machine described by @p config:
 * PreparedReplay(program, trace, options).replay(config).  A caller
 * replaying one trace through many configurations should prepare it
 * once instead.
 *
 * @throws FatalError and SimAbort as PreparedReplay and its replay().
 */
SimResult replayTrace(const SimConfig &config, const Program &program,
                      const Trace &trace,
                      const ReplayOptions &options = {});

} // namespace pipesim::replay

#endif // PIPESIM_REPLAY_REPLAY_ENGINE_HH
