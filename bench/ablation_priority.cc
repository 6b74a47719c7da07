/**
 * Memory-interface priority ablation (paper section 5): "The
 * simulator was also able to select whether data or instructions
 * have priority at the memory interface"; the presented results give
 * instruction requests priority over data requests.
 *
 * This bench compares both orders for every strategy (6-cycle
 * memory, both bus widths, 64-byte cache).
 */

#include "bench_common.hh"
#include "sim/simulator.hh"

using namespace pipesim;

namespace
{

int
run(int argc, char **argv)
{
    auto s = bench::setup(argc, argv,
                          "instruction vs data priority at the "
                          "memory interface", {false, false});
    if (!s)
        return 0;

    for (unsigned bus : {4u, 8u}) {
        Table table({"strategy", "inst_priority", "data_priority",
                     "ratio"});
        for (const char *strategy :
             {"conv", "8-8", "16-16", "16-32", "32-32"}) {
            SimConfig cfg;
            cfg.fetch = std::string(strategy) == "conv"
                            ? conventionalConfigFor(64, 16)
                            : pipeConfigFor(strategy, 64);
            cfg.mem.accessTime = 6;
            cfg.mem.busWidthBytes = bus;

            cfg.mem.instructionPriority = true;
            const auto ipri = runSimulation(cfg, s->benchmark.program);
            cfg.mem.instructionPriority = false;
            const auto dpri = runSimulation(cfg, s->benchmark.program);

            table.beginRow();
            table.cell(strategy);
            table.cell(std::uint64_t(ipri.totalCycles));
            table.cell(std::uint64_t(dpri.totalCycles));
            table.cell(double(dpri.totalCycles) /
                           double(ipri.totalCycles),
                       3);
        }
        bench::printPanel(*s,
                          "bus = " + std::to_string(bus) +
                              " bytes, cache = 64 bytes",
                          table);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return pipesim::runGuardedMain([&] { return run(argc, argv); });
}
