/**
 * @file
 * The standard command-line surface shared by every bench and
 * example binary, registered in one place instead of per tool:
 *
 *   observability   --cpi-stack, --trace-json, --stats-json
 *   host profiling  --profile, --profile-json
 *   fault injection --fi-kind, --fi-seed, --fi-rate
 *   sweep control   --jobs, --obs-point, --fi-point, --fail-fast,
 *                   --progress, --store-dir, --point-deadline-ms,
 *                   --progress-window
 *   engine          --engine cycle|trace, --trace-file,
 *                   --sample-period, --sample-warmup, --sample-measure,
 *                   --ckpt-dir, --ckpt-create
 *
 * registerStandardFlags() registers the groups, standardFlagsFromCli()
 * reads them back, applyStandardFlags() pushes them onto a SweepSpec
 * (including the observability preRun/postRun hooks), and
 * prepareSweepTrace() captures or loads the trace a --engine=trace
 * sweep replays.  Single-run tools (no sweep) register only the
 * groups that apply via StandardFlagGroups.
 */

#ifndef PIPESIM_SIM_STANDARD_FLAGS_HH
#define PIPESIM_SIM_STANDARD_FLAGS_HH

#include <memory>
#include <string>

#include "fault/fault.hh"
#include "obs/obs_cli.hh"
#include "obs/profiler.hh"
#include "sim/cli.hh"
#include "sim/experiment.hh"

namespace pipesim
{

namespace replay
{
struct Trace;
} // namespace replay

/** Which optional flag groups a tool registers. */
struct StandardFlagGroups
{
    bool sweep = true;  //!< --jobs/--obs-point/--fi-point/... group
    bool engine = true; //!< --engine/--trace-file/--sample-* group
};

/** Parsed values of the standard flags (defaults when unregistered). */
struct StandardFlags
{
    obs::ObsOptions obs;
    obs::ProfileOptions profile; //!< host profiler (--profile[-json])
    fault::FaultConfig fault;

    // Sweep group.
    unsigned jobs = 0;      //!< workers (0 = env/hardware default)
    std::string obsPoint;   //!< "strategy:cachebytes" the obs observe
    std::string faultPoint; //!< restrict injection to this point
    bool failFast = false;  //!< rethrow instead of collecting failures
    bool progress = false;  //!< --progress: stderr sweep heartbeat
    std::string storeDir;   //!< crash-safe result store (empty = none)
    unsigned pointDeadlineMs = 0;  //!< per-point wall clock (0 = none)
    unsigned progressWindow = 0;   //!< watchdog override (0 = default)

    // Engine group.
    SweepEngine engine = SweepEngine::Cycle;
    std::string traceFile;        //!< load (or save) the capture here
    unsigned samplePeriod = 0;    //!< replay sampling (0 = exact)
    unsigned sampleWarmup = 300;  //!< warm-up insts per window
    unsigned sampleMeasure = 700; //!< measured insts per window
    std::string ckptDir;          //!< live-points checkpoint directory
    bool ckptCreate = false;      //!< create/refresh the checkpoints
};

/** Register the standard groups on @p cli. */
void registerStandardFlags(CliParser &cli,
                           const StandardFlagGroups &groups = {});

/**
 * Read the standard flags back after cli.parse().  Pass the same
 * @p groups as registration; unregistered groups keep their defaults.
 *
 * Side effect: when --profile / --profile-json was given, the global
 * host profiler is activated here (obs::activateProfiling), so
 * everything after CLI parsing — workload build, capture, sweep — is
 * covered; runGuardedMain() flushes the report on exit.
 */
StandardFlags standardFlagsFromCli(const CliParser &cli,
                                   const StandardFlagGroups &groups = {});

/**
 * Attach the per-point observability hooks to @p spec: when the sweep
 * reaches the point named by flags.obsPoint, the requested outputs
 * are produced for that run; if the point never runs, a warning is
 * emitted after the sweep.  No-op when nothing was requested.
 */
void installObs(SweepSpec &spec, const StandardFlags &flags);

/**
 * Apply the standard flags to @p spec: worker count, fault options,
 * failure policy (benches default to collect-and-continue), engine
 * selection and the observability hooks.
 *
 * @throws FatalError for contradictory combinations: the trace engine
 *         with fault injection, or with per-point observability
 *         outputs (replay has no Simulator to attach probes to).
 */
void applyStandardFlags(SweepSpec &spec, const StandardFlags &flags);

/**
 * Make the trace a --engine=trace sweep replays and point
 * spec.trace at it.  When flags.traceFile names an existing file it
 * is loaded (and checked against @p program); otherwise the trace is
 * captured here with the default cycle-accurate machine and, when
 * flags.traceFile is non-empty, saved there for reuse.
 *
 * @return the owning handle (keep it alive for the sweep); nullptr
 *         when the engine is Cycle.
 */
std::shared_ptr<const replay::Trace>
prepareSweepTrace(SweepSpec &spec, const StandardFlags &flags,
                  const Program &program);

} // namespace pipesim

#endif // PIPESIM_SIM_STANDARD_FLAGS_HH
