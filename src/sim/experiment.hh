/**
 * @file
 * Experiment harness: the cache-size sweeps behind every figure in
 * the paper's evaluation, parameterised the same way (strategy set,
 * memory access time, bus width, pipelining).
 *
 * Sweep points are independent (one Simulator per point against a
 * shared immutable Program), so runCacheSweep can execute them on a
 * thread pool; see docs/parallel_sweeps.md for the threading model
 * and the callback serialization contract.
 */

#ifndef PIPESIM_SIM_EXPERIMENT_HH
#define PIPESIM_SIM_EXPERIMENT_HH

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "assembler/program.hh"
#include "common/table.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"

namespace pipesim
{

namespace replay
{
struct Trace;
} // namespace replay

/** Which engine executes each sweep point. */
enum class SweepEngine
{
    /** Full cycle-accurate simulation (Simulator). */
    Cycle,
    /**
     * Trace-driven replay of SweepSpec::trace, prepared once per
     * sweep (replay::PreparedReplay): a trace that does not replay
     * the program, or impossible windowing, is one FatalError from
     * runCacheSweep before any point runs.
     * Exact by default; SweepSpec::samplePeriod selects sampling.
     * preRun/postRun do not fire (there is no Simulator to attach
     * probes to); on_point still fires for every completed point.
     */
    Trace,
};

/** How runCacheSweep treats a failing point. */
enum class SweepFailurePolicy
{
    /**
     * Rethrow the first failure in enumeration order after every
     * point has finished (no table is produced).  The default, and
     * the pre-existing behaviour.
     */
    FailFast,
    /**
     * Record the failure, render "ERR" in that point's cell, and
     * finish the sweep; the failures come back in
     * SweepResult::failures, in enumeration order regardless of the
     * worker count.
     */
    CollectAndContinue,
};

/** Structured record of one failed sweep point. */
struct PointFailure
{
    std::string strategy;
    unsigned cacheBytes = 0;
    std::string message;  //!< the exception's what()
    std::string snapshot; //!< machine snapshot (SimAbort only)
};

/**
 * Host-side timing record for one completed (or failed) sweep point.
 * Records come back in enumeration order for every worker count, so
 * the (strategy, cacheBytes) key sequence is deterministic; only
 * wallNs carries nondeterministic host timing.
 */
struct PointTiming
{
    std::string strategy;
    unsigned cacheBytes = 0;
    std::uint64_t wallNs = 0; //!< host wall-clock of the point's run
};

/** What a sweep produced: the table plus any per-point failures. */
struct SweepResult
{
    Table table;
    std::vector<PointFailure> failures;

    /** Per-point host timings, in enumeration order (valid points
     *  only — one entry per non-"-" cell). */
    std::vector<PointTiming> timings;

    /** @return true if every valid point completed. */
    bool ok() const { return failures.empty(); }

    /**
     * Human-readable report of every failure (message plus indented
     * machine snapshot); empty when ok().
     */
    std::string failureReport() const;
};

/** One figure-style sweep: strategies x cache sizes. */
struct SweepSpec
{
    /** Cache sizes on the x axis (bytes). */
    std::vector<unsigned> cacheSizes = {16, 32, 64, 128, 256, 512, 1024};

    /**
     * Strategy names: "conv" or a Table II PIPE configuration name.
     * Order defines the table columns.
     */
    std::vector<std::string> strategies = {"conv", "8-8", "16-16",
                                           "16-32", "32-32"};

    /** Memory-side parameters shared by every point. */
    MemSystemConfig mem;

    /** Off-chip policy for the PIPE strategies (paper: TruePrefetch). */
    OffchipPolicy policy = OffchipPolicy::TruePrefetch;

    /** Line size for the conventional cache. */
    unsigned convLineBytes = 16;

    /** Entry size for the "tib" strategy. */
    unsigned tibEntryBytes = 16;

    /** Processor-side parameters. */
    PipelineConfig cpu;

    /**
     * Worker threads for the sweep: 0 resolves through --jobs /
     * PIPESIM_JOBS / hardware concurrency (resolveJobCount()); 1
     * forces fully serial in-order execution on the calling thread.
     */
    unsigned jobs = 0;

    /** What to do when a point's Simulator throws. */
    SweepFailurePolicy failurePolicy = SweepFailurePolicy::FailFast;

    /**
     * Emit a throttled progress heartbeat with ETA on stderr while
     * the sweep runs ("[sweep] 12/31 points (38%) elapsed 1.2s eta
     * 1.9s").  Heartbeats never touch stdout, so the rendered table
     * stays byte-identical for any worker count (--progress on every
     * bench; see docs/observability.md).
     */
    bool progress = false;

    /** Which engine runs each point. */
    SweepEngine engine = SweepEngine::Cycle;

    /**
     * The captured trace replayed by the Trace engine (must outlive
     * the sweep; one capture drives every point because the committed
     * instruction stream is config-independent).  Required when
     * engine == SweepEngine::Trace.
     */
    const replay::Trace *trace = nullptr;

    /** Trace engine: sampling period in instructions (0 = exact). */
    unsigned samplePeriod = 0;
    unsigned sampleWarmup = 300;  //!< warm-up instructions per window
    unsigned sampleMeasure = 700; //!< measured instructions per window

    /** Override SimConfig::maxCycles for every point (0 = keep the
     *  default). */
    Cycle maxCycles = 0;

    /** Override SimConfig::progressWindow for every point (0 = keep
     *  the default) -- lets tests detect a deadlock fast. */
    Cycle progressWindow = 0;

    /**
     * Called with the freshly built Simulator before a point runs --
     * the place to attach probe-bus listeners (trace exporters, extra
     * accounting) for that point.
     *
     * Callback contract under parallel sweeps: preRun, postRun and
     * on_point are always invoked under one shared mutex, never
     * concurrently.  With jobs == 1 they fire in deterministic
     * (size, strategy) order; with jobs > 1 the order across points
     * follows completion, but postRun and on_point for a given point
     * are still consecutive under a single lock hold.
     */
    std::function<void(Simulator &sim, const std::string &strategy,
                       unsigned cache_bytes)>
        preRun;

    /**
     * Called after a point finishes, while its Simulator is still
     * alive -- the place to detach listeners and write outputs.
     * Serialized; see preRun.
     */
    std::function<void(Simulator &sim, const std::string &strategy,
                       unsigned cache_bytes, const SimResult &result)>
        postRun;

    /**
     * Called once on the sweeping thread after every point has
     * finished (and after the last postRun/on_point), regardless of
     * worker count -- the place to validate that an expected point
     * actually ran and flush any aggregate output.
     */
    std::function<void()> onSweepEnd;
};

/**
 * One enumerated (cache size, strategy) cell of a sweep grid — the
 * point-level scheduling unit runCacheSweep plans its grid into.
 */
struct SweepPointPlan
{
    std::size_t row = 0; //!< index into spec.cacheSizes
    std::size_t col = 0; //!< index into spec.strategies
    unsigned cacheBytes = 0;
    std::string strategy;
    SimConfig cfg; //!< built exactly once, at planning
};

/**
 * Enumerate every valid point of the sweep grid in deterministic
 * (size, strategy) order, building each SimConfig exactly once.
 * Invalid (degenerate) points are omitted — they render "-" in an
 * assembled table.
 */
std::vector<SweepPointPlan> planSweepPoints(const SweepSpec &spec);

/**
 * Build the SimConfig for one (strategy, cache size) point when the
 * point is simulable; std::nullopt for a degenerate point (cache
 * smaller than one conventional line / PIPE line / TIB entry pair).
 * Builds each configuration exactly once -- this is the function the
 * sweep uses to enumerate points.
 */
std::optional<SimConfig> makeValidSweepConfig(const SweepSpec &spec,
                                              const std::string &strategy,
                                              unsigned cache_bytes);

/**
 * @return true if the point is simulable (the cache must fit at
 *         least one conventional line, PIPE line, or TIB entry pair).
 */
bool sweepPointValid(const SweepSpec &spec, const std::string &strategy,
                     unsigned cache_bytes);

/**
 * Run the sweep over @p program, using spec.jobs worker threads.
 *
 * The result is deterministic and independent of the worker count:
 * each point runs on a private Simulator (own StatGroup and probe
 * bus) and the table is assembled in (size, strategy) order
 * regardless of completion order.  Points are deterministic, so a
 * failing point is not retried: under FailFast the first failure in
 * enumeration order is rethrown after all workers finish, under
 * CollectAndContinue it renders "ERR" in that cell and is returned
 * in SweepResult::failures (postRun/on_point do not fire for failed
 * points).
 *
 * @param on_point Optional observer called after each run (e.g. for
 *                 progress output or extra stat collection);
 *                 serialized with preRun/postRun (see SweepSpec).
 * @return the assembled table (one row per cache size, one column
 *         per strategy, cells are total execution cycles, "-" for
 *         invalid points, "ERR" for failed ones) plus the structured
 *         failure records.
 */
SweepResult runCacheSweep(
    const SweepSpec &spec, const Program &program,
    const std::function<void(const std::string &strategy,
                             unsigned cache_bytes,
                             const SimResult &result)> &on_point = {});

} // namespace pipesim

#endif // PIPESIM_SIM_EXPERIMENT_HH
