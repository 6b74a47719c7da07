/**
 * Extension study: Target Instruction Buffer vs cache strategies.
 *
 * Section 2.1 of the paper discusses the TIB approach (AMD 29000):
 * "the results of the studies indicate that a small TIB can provide
 * better performance than a simple small instruction cache, [but]
 * the use of a TIB implies large amounts of off-chip accessing,
 * which again can be a problem in SCP design."
 *
 * This bench tests both claims against our implementations: total
 * cycles AND off-chip instruction-fetch traffic (bytes over the input
 * bus) for equal on-chip storage, across the paper's memory
 * parameters.
 */

#include "bench_common.hh"
#include "sim/simulator.hh"

using namespace pipesim;

namespace
{

std::uint64_t
ifetchBytes(const SimResult &r, const SimConfig &cfg)
{
    if (cfg.fetch.strategy == FetchStrategy::Tib)
        return r.counter("fetch.offchip_fetches") * cfg.fetch.lineBytes;
    if (cfg.fetch.strategy == FetchStrategy::Pipe)
        return (r.counter("fetch.offchip_demand_lines") +
                r.counter("fetch.offchip_prefetch_lines")) *
               cfg.fetch.lineBytes;
    // Conventional: requests fetch one bus region each.
    return (r.counter("fetch.demand_fetches") +
            r.counter("fetch.prefetch_fetches")) *
           cfg.mem.busWidthBytes;
}

} // namespace

namespace
{

int
run(int argc, char **argv)
{
    auto s = bench::setup(argc, argv,
                          "TIB vs conventional vs PIPE: cycles and "
                          "off-chip traffic at equal storage",
                          {false, false});
    if (!s)
        return 0;

    for (unsigned access : {1u, 6u}) {
        Table table({"onchip_bytes", "conv_cycles", "tib_cycles",
                     "pipe16x16_cycles", "conv_KB", "tib_KB",
                     "pipe_KB"});
        for (unsigned size : {16u, 32u, 64u, 128u, 256u, 512u}) {
            SimConfig conv;
            conv.fetch = conventionalConfigFor(size, 16);
            conv.mem.accessTime = access;
            conv.mem.busWidthBytes = 8;
            const auto rc = runSimulation(conv, s->benchmark.program);

            SimConfig tib;
            tib.fetch = tibConfigFor(size, 16);
            tib.mem = conv.mem;
            const auto rt = runSimulation(tib, s->benchmark.program);

            SimConfig pipe;
            pipe.fetch = pipeConfigFor("16-16", std::max(size, 16u));
            pipe.mem = conv.mem;
            const auto rp = runSimulation(pipe, s->benchmark.program);

            table.beginRow();
            table.cell(size);
            table.cell(std::uint64_t(rc.totalCycles));
            table.cell(std::uint64_t(rt.totalCycles));
            table.cell(std::uint64_t(rp.totalCycles));
            table.cell(double(ifetchBytes(rc, conv)) / 1024.0, 0);
            table.cell(double(ifetchBytes(rt, tib)) / 1024.0, 0);
            table.cell(double(ifetchBytes(rp, pipe)) / 1024.0, 0);
        }
        bench::printPanel(*s,
                          "memory access time = " +
                              std::to_string(access) +
                              " (bus 8, non-pipelined)",
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
