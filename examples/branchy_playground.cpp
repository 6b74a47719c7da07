/**
 * Branchy playground: generate a synthetic branch-heavy program
 * (short basic blocks, data-dependent forward branches), run it under
 * any fetch strategy, verify the checksum against the host model and
 * report the branch behaviour — a counterpoint to the loop-dominated
 * Livermore benchmark.
 *
 *     ./branchy_playground --strategy tib --blocks 8 --slots 2 \
 *         --mask 1 --mem 6
 */

#include <iostream>

#include "obs/obs_cli.hh"
#include "sim/cli.hh"
#include "sim/guard.hh"
#include "sim/simulator.hh"
#include "sim/standard_flags.hh"
#include "workloads/synthetic.hh"

using namespace pipesim;

namespace
{

int
run(int argc, char **argv)
{
    CliParser cli("synthetic branch-heavy workload explorer");
    cli.addOption("strategy", "16-16",
                  "conv, tib, 8-8, 16-16, 16-32 or 32-32");
    cli.addOption("cache", "64", "on-chip fetch storage in bytes");
    cli.addOption("blocks", "8", "basic blocks per iteration");
    cli.addOption("filler", "4", "skippable ops per block");
    cli.addOption("slots", "2", "PBR delay slots per branch (0-7)");
    cli.addOption("mask", "1",
                  "taken-selectivity bits (0=always, 1=~50%, 2=~25%)");
    cli.addOption("iterations", "128", "outer loop trips");
    cli.addOption("mem", "6", "memory access time");
    cli.addOption("bus", "8", "bus width bytes");
    // Single run: no sweep/engine groups, just obs + profiling.
    const StandardFlagGroups groups{false, false};
    registerStandardFlags(cli, groups);
    if (!cli.parse(argc, argv))
        return 0;
    const StandardFlags flags = standardFlagsFromCli(cli, groups);

    workloads::BranchySpec spec;
    spec.blocks = unsigned(cli.getInt("blocks"));
    spec.fillerOps = unsigned(cli.getInt("filler"));
    spec.delaySlots = unsigned(cli.getInt("slots"));
    spec.maskBits = unsigned(cli.getInt("mask"));
    spec.iterations = unsigned(cli.getInt("iterations"));

    const auto built = workloads::buildBranchyProgram(spec);
    const auto ref = workloads::runBranchyReference(spec);

    SimConfig cfg;
    const std::string strategy = cli.get("strategy");
    const unsigned cache = unsigned(cli.getInt("cache"));
    if (strategy == "conv")
        cfg.fetch = conventionalConfigFor(cache, 16);
    else if (strategy == "tib")
        cfg.fetch = tibConfigFor(cache, 16);
    else
        cfg.fetch = pipeConfigFor(strategy, cache);
    cfg.mem.accessTime = unsigned(cli.getInt("mem"));
    cfg.mem.busWidthBytes = unsigned(cli.getInt("bus"));

    Simulator sim(cfg, built.program);
    obs::ObsSession obs_session(flags.obs, sim);
    const SimResult res = sim.run();
    obs_session.finish(res, "branchy:" + strategy);

    const Word acc = sim.dataMemory().readWord(built.accSlot);
    const bool ok = acc == ref.acc &&
                    sim.dataMemory().readWord(built.stateSlot) ==
                        ref.state;

    std::cout << "program:     " << built.program.codeSize()
              << " bytes, " << spec.blocks << " blocks x "
              << spec.iterations << " iterations\n"
              << "branches:    " << ref.takenBranches << " taken / "
              << ref.notTakenBranches << " not taken ("
              << 100.0 * double(ref.takenBranches) /
                     double(ref.takenBranches + ref.notTakenBranches)
              << "% taken)\n"
              << "cycles:      " << res.totalCycles << " ("
              << res.instructions << " instructions, CPI "
              << res.cpi() << ")\n"
              << "checksum:    0x" << std::hex << acc << std::dec
              << (ok ? "  [matches host model]" : "  [MISMATCH]")
              << "\n"
              << "fetch stalls: "
              << res.counter("cpu.fetch_starve_cycles") << " cycles\n";
    return ok ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return pipesim::runGuardedMain([&] { return run(argc, argv); });
}
