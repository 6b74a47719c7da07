/**
 * Livermore explorer: run a single kernel under any machine
 * configuration and dump the full statistics report, including the
 * per-queue occupancy histograms and fetch-unit counters.
 *
 *     ./livermore_explorer --kernel 7 --strategy 16-32 --cache 64 \
 *         --mem 6 --bus 8 --pipelined
 */

#include <iostream>

#include "obs/obs_cli.hh"
#include "sim/cli.hh"
#include "sim/guard.hh"
#include "sim/simulator.hh"
#include "sim/standard_flags.hh"
#include "workloads/benchmark_program.hh"
#include "workloads/livermore.hh"
#include "trace/pipeview.hh"
#include "workloads/reference.hh"

using namespace pipesim;

namespace
{

int
run(int argc, char **argv)
{
    CliParser cli("run one Livermore kernel and dump statistics");
    cli.addOption("kernel", "1", "kernel id (1..14)");
    cli.addOption("strategy", "16-16",
                  "conv, 8-8, 16-16, 16-32 or 32-32");
    cli.addOption("cache", "128", "instruction cache bytes");
    cli.addOption("mem", "1", "memory access time");
    cli.addOption("bus", "4", "bus width bytes");
    cli.addOption("scale", "0.2", "trip-count scale");
    cli.addFlag("pipelined", "pipelined external memory");
    cli.addFlag("data-priority", "data beats demand I-fetch");
    cli.addFlag("timeline", "print a cycle-by-cycle issue timeline");
    // Single run: no sweep/engine groups, just obs + profiling.
    const StandardFlagGroups groups{false, false};
    registerStandardFlags(cli, groups);
    if (!cli.parse(argc, argv))
        return 0;
    const StandardFlags flags = standardFlagsFromCli(cli, groups);

    const auto kernel = workloads::livermoreKernel(
        int(cli.getInt("kernel")), cli.getDouble("scale"));
    std::vector<codegen::Kernel> kernels{kernel};
    const auto bench = workloads::buildBenchmark(kernels);
    const auto &info = bench.codeInfo[0];

    SimConfig cfg;
    const std::string strategy = cli.get("strategy");
    cfg.fetch = strategy == "conv"
                    ? conventionalConfigFor(unsigned(cli.getInt("cache")))
                    : pipeConfigFor(strategy,
                                    unsigned(cli.getInt("cache")));
    cfg.mem.accessTime = unsigned(cli.getInt("mem"));
    cfg.mem.busWidthBytes = unsigned(cli.getInt("bus"));
    cfg.mem.pipelined = cli.getFlag("pipelined");
    cfg.mem.instructionPriority = !cli.getFlag("data-priority");

    std::cout << "kernel " << kernel.id << " (" << kernel.name << "): "
              << kernel.tripCount << " iterations, inner loop "
              << info.innerLoopBytes << " bytes, " << info.delaySlots
              << " delay slots\n\n";

    Simulator sim(cfg, bench.program);
    obs::ObsSession obs_session(flags.obs, sim);
    PipeViewer viewer;
    SimResult res;
    if (cli.getFlag("timeline")) {
        viewer.run(sim);
        res = sim.result();
    } else {
        res = sim.run();
    }

    std::string diag;
    const bool ok = workloads::verifyAgainstReference(
        sim.dataMemory(), kernel, info, &diag);

    std::cout << "cycles:       " << res.totalCycles << "\n"
              << "instructions: " << res.instructions << "\n"
              << "CPI:          " << res.cpi() << "\n"
              << "verification: " << (ok ? "ok (bit-exact)" : diag)
              << "\n\n--- statistics ---\n"
              << sim.stats().dump();
    if (cli.getFlag("timeline")) {
        std::cout << "\n--- timeline (I=issue f=fetch-starve "
                     "d=ldq-wait q=queue-full) ---\n"
                  << viewer.timeline() << viewer.summary() << "\n";
    }
    obs_session.finish(res, "k" + std::to_string(kernel.id) + ":" +
                                strategy);
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return pipesim::runGuardedMain([&] { return run(argc, argv); });
}
