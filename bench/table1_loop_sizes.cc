/**
 * Table I reproduction: inner-loop sizes (bytes) of the 14 Lawrence
 * Livermore loops, plus the total dynamic instruction count of a
 * benchmark run (the paper reports 150,575).
 */

#include <iostream>

#include "bench_common.hh"
#include "sim/simulator.hh"

using namespace pipesim;

namespace
{

/** Paper Table I inner-loop sizes, for side-by-side comparison. */
const unsigned paperSizes[14] = {116, 204, 64,  80, 76, 72, 288,
                                 732, 272, 260, 56, 56, 328, 224};

} // namespace

namespace
{

int
run(int argc, char **argv)
{
    auto s = bench::setup(argc, argv,
                          "Table I: Livermore inner-loop sizes",
                          {false, false});
    if (!s)
        return 0;

    Table table({"loop", "name", "inner_loop_bytes", "paper_bytes",
                 "delay_slots"});
    for (std::size_t i = 0; i < s->benchmark.codeInfo.size(); ++i) {
        const auto &info = s->benchmark.codeInfo[i];
        table.beginRow();
        table.cell(unsigned(info.id));
        table.cell(info.name);
        table.cell(info.innerLoopBytes);
        table.cell(paperSizes[i]);
        table.cell(info.delaySlots);
    }
    bench::printPanel(*s, "Table I: inner loop sizes", table);

    // Dynamic instruction count of one full run.
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);
    const auto res = runSimulation(cfg, s->benchmark.program);
    std::cout << "dynamic instructions: " << res.instructions
              << "  (paper: 150,575 at scale 1.0; this run at scale "
              << s->scale << ")\n"
              << "static code size:     "
              << s->benchmark.program.codeSize() << " bytes\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return pipesim::runGuardedMain([&] { return run(argc, argv); });
}
