/**
 * Quickstart: build the paper's 14-loop benchmark, run it on the
 * PIPE fetch strategy and on the conventional always-prefetch cache,
 * and compare total execution cycles — the paper's headline
 * experiment in ~40 lines.
 *
 *     ./quickstart [--cache 128] [--mem 6] [--bus 8] [--scale 0.2]
 */

#include <iostream>

#include "obs/obs_cli.hh"
#include "sim/cli.hh"
#include "sim/guard.hh"
#include "sim/simulator.hh"
#include "sim/standard_flags.hh"
#include "workloads/benchmark_program.hh"
#include "workloads/reference.hh"

using namespace pipesim;

namespace
{

int
run(int argc, char **argv)
{
    CliParser cli("pipesim quickstart: PIPE vs conventional fetch");
    cli.addOption("cache", "128", "instruction cache size in bytes");
    cli.addOption("mem", "6", "memory access time in cycles");
    cli.addOption("bus", "8", "input bus width in bytes (4 or 8)");
    cli.addOption("scale", "0.2", "workload scale (1.0 = paper size)");
    // Single run: no sweep/engine groups, just obs + profiling.
    const StandardFlagGroups groups{false, false};
    registerStandardFlags(cli, groups);
    if (!cli.parse(argc, argv))
        return 0;
    const StandardFlags flags = standardFlagsFromCli(cli, groups);

    // 1. Generate the benchmark program (the 14 Livermore loops
    //    compiled back to back, as in the paper).
    const auto bench =
        workloads::buildLivermoreBenchmark(cli.getDouble("scale"));
    std::cout << "benchmark: " << bench.program.codeSize()
              << " bytes of code, 14 kernels\n\n";

    // 2. Run both fetch strategies on the same machine parameters.
    for (const char *strategy : {"conv", "16-16"}) {
        SimConfig cfg;
        cfg.mem.accessTime = unsigned(cli.getInt("mem"));
        cfg.mem.busWidthBytes = unsigned(cli.getInt("bus"));
        cfg.fetch =
            std::string(strategy) == "conv"
                ? conventionalConfigFor(unsigned(cli.getInt("cache")))
                : pipeConfigFor(strategy, unsigned(cli.getInt("cache")));

        Simulator sim(cfg, bench.program);
        // The file-producing outputs observe the PIPE run (the second
        // pass would otherwise overwrite the conventional one's).
        obs::ObsOptions pass_opts = flags.obs;
        if (std::string(strategy) == "conv") {
            pass_opts.traceJson.clear();
            pass_opts.statsJson.clear();
        }
        obs::ObsSession obs_session(pass_opts, sim);
        const SimResult res = sim.run();

        // 3. Check the computation really happened (bit-exact vs a
        //    host-side reference).
        unsigned bad = 0;
        for (std::size_t i = 0; i < bench.kernels.size(); ++i) {
            if (!workloads::verifyAgainstReference(
                    sim.dataMemory(), bench.kernels[i],
                    bench.codeInfo[i]))
                ++bad;
        }

        std::cout << strategy << ": " << res.totalCycles << " cycles, "
                  << res.instructions << " instructions, CPI "
                  << res.cpi() << (bad ? "  [VERIFY FAILED]" : "  [ok]")
                  << "\n";
        obs_session.finish(res, strategy);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return pipesim::runGuardedMain([&] { return run(argc, argv); });
}
