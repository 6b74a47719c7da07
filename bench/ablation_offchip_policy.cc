/**
 * Off-chip policy ablation (paper section 6, paragraph 3): the
 * fabricated PIPE chip only requests a line from off-chip memory
 * when it is guaranteed to contain an unconditionally executed
 * instruction; the paper found this non-optimal for a single-chip
 * processor and presents all results with true prefetching enabled.
 *
 * This bench quantifies that design decision: cycles for
 * GuaranteedOnly vs TruePrefetch across cache sizes for each PIPE
 * configuration (6-cycle memory, 8-byte bus).
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
                          "guaranteed-only vs true off-chip prefetch",
                          {false, false});
    if (!s)
        return 0;

    for (const auto &name : tableIIConfigNames()) {
        Table table({"cache_bytes", "guaranteed_only", "true_prefetch",
                     "speedup", "blocked_fills", "extra_lines"});
        for (unsigned size : bench::paperCacheSizes()) {
            if (pipeConfigFor(name, size).lineBytes > size)
                continue;
            SimConfig cfg;
            cfg.fetch = pipeConfigFor(name, size);
            cfg.mem.accessTime = 6;
            cfg.mem.busWidthBytes = 8;

            cfg.fetch.offchipPolicy = OffchipPolicy::GuaranteedOnly;
            const auto guarded =
                runSimulation(cfg, s->benchmark.program);
            cfg.fetch.offchipPolicy = OffchipPolicy::TruePrefetch;
            const auto free_run =
                runSimulation(cfg, s->benchmark.program);

            const auto lines = [](const SimResult &r) {
                return r.counter("fetch.offchip_demand_lines") +
                       r.counter("fetch.offchip_prefetch_lines");
            };

            table.beginRow();
            table.cell(size);
            table.cell(std::uint64_t(guarded.totalCycles));
            table.cell(std::uint64_t(free_run.totalCycles));
            table.cell(double(guarded.totalCycles) /
                           double(free_run.totalCycles),
                       3);
            // Mechanism columns: how often the guarantee blocked a
            // fill, and the speculative lines true prefetch added.
            table.cell(guarded.counter("fetch.blocked_on_guarantee"));
            table.cell(std::int64_t(lines(free_run)) -
                       std::int64_t(lines(guarded)));
        }
        bench::printPanel(*s, "PIPE configuration " + name, table);
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return pipesim::runGuardedMain([&] { return run(argc, argv); });
}
