/**
 * Strategy shootout: sweep cache sizes for every fetch strategy on a
 * configurable machine and print the figure-style table — a
 * generalisation of the paper's Figures 4-6 to any parameter point.
 * Accepts the standard flag groups (sim/standard_flags.hh), so the
 * sweep composes with --jobs, the observability
 * outputs and --engine trace.
 *
 *     ./strategy_shootout --mem 6 --bus 8 --pipelined --scale 0.3
 *     ./strategy_shootout --engine trace --sample-period 5000
 */

#include <iostream>
#include <memory>

#include "common/log.hh"
#include "common/strutil.hh"
#include "replay/trace_format.hh"
#include "sim/cli.hh"
#include "sim/experiment.hh"
#include "sim/guard.hh"
#include "sim/standard_flags.hh"
#include "workloads/benchmark_program.hh"

using namespace pipesim;

namespace
{

int
run(int argc, char **argv)
{
    CliParser cli("cache-size sweep across all fetch strategies");
    cli.addOption("mem", "6", "memory access time in cycles");
    cli.addOption("bus", "8", "bus width bytes (4 or 8)");
    cli.addOption("scale", "0.3", "workload scale (1.0 = paper)");
    cli.addOption("sizes", "16,32,64,128,256,512",
                  "comma-separated cache sizes");
    cli.addFlag("pipelined", "pipelined external memory");
    cli.addFlag("tib", "include the target-instruction-buffer strategy");
    cli.addFlag("csv", "emit CSV instead of a text table");
    registerStandardFlags(cli);
    if (!cli.parse(argc, argv))
        return 0;
    const StandardFlags flags = standardFlagsFromCli(cli);

    const auto bench =
        workloads::buildLivermoreBenchmark(cli.getDouble("scale"));

    SweepSpec spec;
    if (cli.getFlag("tib"))
        spec.strategies.insert(spec.strategies.begin() + 1, "tib");
    spec.mem.accessTime = unsigned(cli.getInt("mem"));
    spec.mem.busWidthBytes = unsigned(cli.getInt("bus"));
    spec.mem.pipelined = cli.getFlag("pipelined");
    spec.cacheSizes.clear();
    for (const auto &part : split(cli.get("sizes"), ','))
        spec.cacheSizes.push_back(unsigned(*parseInt(part)));
    applyStandardFlags(spec, flags);
    const auto trace = prepareSweepTrace(spec, flags, bench.program);

    std::cout << "total cycles, " << bench.kernels.size()
              << " Livermore loops, mem=" << spec.mem.accessTime
              << " bus=" << spec.mem.busWidthBytes
              << (spec.mem.pipelined ? " pipelined" : " non-pipelined")
              << "\n\n";

    const SweepResult result = runCacheSweep(spec, bench.program);
    std::cout << (cli.getFlag("csv") ? result.table.toCsv()
                                     : result.table.toText());
    if (!result.ok())
        std::cout << "\n" << result.failureReport();
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return pipesim::runGuardedMain([&] { return run(argc, argv); });
}
