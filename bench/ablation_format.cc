/**
 * Instruction-format ablation (paper simulation parameter 1): the
 * real PIPE mixes 16- and 32-bit instructions; the paper's presented
 * results use a fixed 32-bit format "to make comparisons to other
 * machines more realistic".
 *
 * This bench regenerates the benchmark in both formats and compares
 * code size and execution cycles per strategy (6-cycle memory,
 * 8-byte bus, 64-byte caches): the compact format packs more
 * instructions per line and per bus beat, benefiting small caches.
 */

#include <iostream>

#include "bench_common.hh"
#include "sim/simulator.hh"

using namespace pipesim;

namespace
{

int
run(int argc, char **argv)
{
    CliParser cli("fixed 32-bit vs native 16/32-bit instruction format");
    auto s = bench::setup(argc, argv, "", {false, false}, &cli);
    if (!s)
        return 0;

    const auto fixed = workloads::buildLivermoreBenchmark(
        s->scale, isa::FormatMode::Fixed32);
    const auto compact = workloads::buildLivermoreBenchmark(
        s->scale, isa::FormatMode::Compact);

    std::cout << "static code size: fixed32 = "
              << fixed.program.codeSize()
              << " bytes, compact = " << compact.program.codeSize()
              << " bytes ("
              << 100.0 * double(compact.program.codeSize()) /
                     double(fixed.program.codeSize())
              << "%)\n\n";

    Table table({"strategy", "fixed32_cycles", "compact_cycles",
                 "ratio"});
    for (const char *strategy :
         {"conv", "8-8", "16-16", "16-32", "32-32"}) {
        SimConfig cfg;
        cfg.fetch = std::string(strategy) == "conv"
                        ? conventionalConfigFor(64, 16)
                        : pipeConfigFor(strategy, 64);
        cfg.mem.accessTime = 6;
        cfg.mem.busWidthBytes = 8;
        const auto rf = runSimulation(cfg, fixed.program);
        const auto rc = runSimulation(cfg, compact.program);
        table.beginRow();
        table.cell(strategy);
        table.cell(std::uint64_t(rf.totalCycles));
        table.cell(std::uint64_t(rc.totalCycles));
        table.cell(double(rf.totalCycles) / double(rc.totalCycles), 3);
    }
    bench::printPanel(*s, "cache = 64 bytes, mem = 6, bus = 8", table);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return pipesim::runGuardedMain([&] { return run(argc, argv); });
}
