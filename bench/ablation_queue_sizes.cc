/**
 * IQ/IQB size ablation (paper simulation parameters 7 and 8): with
 * the line size held at 16 bytes, sweep the instruction queue and
 * instruction queue buffer capacities to show how the lookahead
 * window drives performance (6-cycle memory, 8-byte bus).
 *
 * Table II itself ties IQ/IQB to the line size; this ablation
 * separates the effects.
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
                          "IQ/IQB size sweep at a fixed 16-byte line",
                          {false, false});
    if (!s)
        return 0;

    for (unsigned cache : {32u, 128u}) {
        Table table({"iq_bytes", "iqb_bytes", "cycles"});
        for (unsigned iq : {8u, 16u, 32u}) {
            for (unsigned iqb : {16u, 32u, 64u}) {
                SimConfig cfg;
                cfg.fetch.strategy = FetchStrategy::Pipe;
                cfg.fetch.cacheBytes = cache;
                cfg.fetch.lineBytes = 16;
                cfg.fetch.iqBytes = iq;
                cfg.fetch.iqbBytes = iqb;
                cfg.mem.accessTime = 6;
                cfg.mem.busWidthBytes = 8;
                const auto res =
                    runSimulation(cfg, s->benchmark.program);
                table.beginRow();
                table.cell(iq);
                table.cell(iqb);
                table.cell(std::uint64_t(res.totalCycles));
            }
        }
        bench::printPanel(*s,
                          "cache = " + std::to_string(cache) +
                              " bytes, line = 16 bytes",
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
