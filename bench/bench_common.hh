/**
 * @file
 * Shared scaffolding for the figure/table reproduction binaries.
 *
 * Every bench accepts:
 *     --scale <f>   workload scale (1.0 = the paper's ~150k insts)
 *     --csv         CSV output instead of aligned text
 * plus the standard flags registered by registerStandardFlags()
 * (sim/standard_flags.hh).  The sweep benches take every group:
 * observability, sweep control (--jobs, --obs-point, --fail-fast,
 * --progress, --progress-window) and engine selection (--engine
 * cycle|trace with --trace-file / --sample-*).  They print one table
 * per figure panel with the same axes the paper uses (total execution
 * cycles vs. cache size, one column per fetch strategy).  Failed
 * points render "ERR" and are reported after the table (see
 * docs/robustness.md); under --engine trace the sweep replays one
 * capture of the workload instead of cycle-simulating every point
 * (see docs/trace_replay.md).
 *
 * Benches that run single simulations register neither the sweep nor
 * the engine group, and refuse the observability outputs, which only
 * the sweep applies.
 */

#ifndef PIPESIM_BENCH_COMMON_HH
#define PIPESIM_BENCH_COMMON_HH

#include <iostream>
#include <memory>

#include "common/log.hh"
#include "replay/trace_format.hh"
#include "sim/cli.hh"
#include "sim/experiment.hh"
#include "sim/guard.hh"
#include "sim/standard_flags.hh"
#include "workloads/benchmark_program.hh"

namespace pipesim::bench
{

struct BenchSetup
{
    workloads::Benchmark benchmark;
    bool csv = false;
    double scale = 1.0;
    StandardFlags flags;

    /** The capture a --engine=trace sweep replays; made once per
     *  bench by applySweepOptions() and reused across panels. */
    std::shared_ptr<const replay::Trace> trace;
};

/**
 * Parse standard options and build the workload.  Single-run benches
 * pass @p groups {false, false}; they then reject the observability
 * outputs with a FatalError.  @return nullopt on --help.
 */
inline std::optional<BenchSetup>
setup(int argc, char **argv, const std::string &description,
      const StandardFlagGroups &groups = {}, CliParser *extra = nullptr)
{
    CliParser own(description);
    CliParser &cli = extra ? *extra : own;
    cli.addOption("scale", "1.0", "workload scale (1.0 = paper size)");
    cli.addFlag("csv", "CSV output");
    registerStandardFlags(cli, groups);
    if (!cli.parse(argc, argv))
        return std::nullopt;

    BenchSetup s;
    s.scale = cli.getDouble("scale");
    s.csv = cli.getFlag("csv");
    s.flags = standardFlagsFromCli(cli, groups);
    if (!groups.sweep && s.flags.obs.any())
        fatal("this bench runs single simulations: the observability "
              "outputs (--cpi-stack/--trace-json/--stats-json) apply "
              "only to sweep benches");
    s.benchmark = workloads::buildLivermoreBenchmark(s.scale);
    return s;
}

/**
 * Apply the standard flags to @p spec (applyStandardFlags(): worker
 * count, failure policy, engine, observability hooks) and, for
 * --engine trace, capture or load the workload trace once and point
 * the spec at it.  Benches default to collect-and-continue so a
 * wedged point still yields every healthy cell plus a failure report.
 */
inline void
applySweepOptions(SweepSpec &spec, BenchSetup &s)
{
    applyStandardFlags(spec, s.flags);
    if (s.flags.engine == SweepEngine::Trace) {
        if (!s.trace)
            s.trace = prepareSweepTrace(spec, s.flags,
                                        s.benchmark.program);
        spec.trace = s.trace.get();
    }
}

/** The paper's evaluation sweeps caches from tiny to comfortably
 *  larger than every inner loop. */
inline std::vector<unsigned>
paperCacheSizes()
{
    return {16, 32, 64, 128, 256, 512, 1024};
}

inline void
printPanel(const BenchSetup &s, const std::string &title,
           const Table &table)
{
    std::cout << "== " << title << " ==\n";
    std::cout << (s.csv ? table.toCsv() : table.toText()) << "\n";
}

/** Print a sweep's panel plus its failure report, when any. */
inline void
printPanel(const BenchSetup &s, const std::string &title,
           const SweepResult &result)
{
    printPanel(s, title, result.table);
    if (!result.ok())
        std::cout << result.failureReport() << "\n";
}

} // namespace pipesim::bench

#endif // PIPESIM_BENCH_COMMON_HH
