/**
 * Always-prefetch ablation: the paper adopts Hill's always-prefetch
 * as the conventional baseline because "throughout his study, the
 * always-prefetch strategy consistently provided the best
 * performance" (section 4).  This bench compares it against a plain
 * demand-fetch sub-blocked cache inside our model.
 *
 * Expected outcome: a near tie.  Our demand engine requests the next
 * undelivered instruction as soon as the decoder consumes the current
 * one (a pipelined IF stage), which provides exactly the
 * one-instruction lookahead always-prefetch adds to a *blocking*
 * fetch stage; the prefetch-class requests even lose memory
 * arbitration that demand requests win.  Hill's gains came from
 * comparing against blocking fetch models.  See EXPERIMENTS.md.
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
                          "always-prefetch vs demand-only "
                          "conventional cache", {false, false});
    if (!s)
        return 0;

    for (unsigned access : {1u, 6u}) {
        Table table({"cache_bytes", "demand_only", "always_prefetch",
                     "speedup"});
        for (unsigned size : bench::paperCacheSizes()) {
            SimConfig cfg;
            cfg.fetch = conventionalConfigFor(size, 16);
            cfg.mem.accessTime = access;
            cfg.mem.busWidthBytes = 8;

            cfg.fetch.alwaysPrefetch = false;
            const auto demand = runSimulation(cfg, s->benchmark.program);
            cfg.fetch.alwaysPrefetch = true;
            const auto pf = runSimulation(cfg, s->benchmark.program);

            table.beginRow();
            table.cell(size);
            table.cell(std::uint64_t(demand.totalCycles));
            table.cell(std::uint64_t(pf.totalCycles));
            table.cell(double(demand.totalCycles) /
                           double(pf.totalCycles),
                       3);
        }
        bench::printPanel(*s,
                          "memory access time = " +
                              std::to_string(access) + " (bus 8)",
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
