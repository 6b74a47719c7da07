/**
 * Cross-cutting coverage for behaviours the per-module suites do not
 * reach: the demand-only conventional mode, compact-format line
 * straddles in the PIPE unit, TIB entry conflicts, multi-cycle ALU
 * latency, and "tib" in the experiment sweeps.
 */

#include <gtest/gtest.h>

#include "common/log.hh"

#include "assembler/assembler.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "workloads/benchmark_program.hh"
#include "workloads/reference.hh"

using namespace pipesim;

namespace
{

const workloads::Benchmark &
bench()
{
    static const auto b = workloads::buildLivermoreBenchmark(0.04);
    return b;
}

void
verifyAll(Simulator &sim)
{
    for (std::size_t i = 0; i < bench().kernels.size(); ++i) {
        std::string diag;
        EXPECT_TRUE(workloads::verifyAgainstReference(
            sim.dataMemory(), bench().kernels[i], bench().codeInfo[i],
            &diag))
            << diag;
    }
}

} // namespace

TEST(DemandOnlyConventional, CorrectAndIssuesNoPrefetches)
{
    SimConfig cfg;
    cfg.fetch = conventionalConfigFor(64, 16);
    cfg.fetch.alwaysPrefetch = false;
    cfg.mem.accessTime = 6;
    Simulator sim(cfg, bench().program);
    const auto res = sim.run();
    verifyAll(sim);
    EXPECT_EQ(res.counter("fetch.prefetch_fetches"), 0u);
    EXPECT_GT(res.counter("fetch.demand_fetches"), 0u);
}

TEST(DemandOnlyConventional, NearTieWithAlwaysPrefetch)
{
    // Documented model property (see EXPERIMENTS.md): the pipelined
    // IF stage subsumes the one-instruction prefetch lookahead.
    SimConfig cfg;
    cfg.fetch = conventionalConfigFor(128, 16);
    cfg.mem.accessTime = 6;
    cfg.fetch.alwaysPrefetch = false;
    const auto off = runSimulation(cfg, bench().program);
    cfg.fetch.alwaysPrefetch = true;
    const auto on = runSimulation(cfg, bench().program);
    const double ratio =
        double(off.totalCycles) / double(on.totalCycles);
    EXPECT_NEAR(ratio, 1.0, 0.02);
}

TEST(CompactFormat, PipeHandlesLineStraddlingInstructions)
{
    // One-parcel nops push a two-parcel instruction across the
    // 8-byte line boundary (bytes 6..10).
    const char *src = R"(
        nop
        nop
        nop
        li  r1, 0x1234    ; straddles lines with 8-byte lines
        li  r6, 0x4000
        st  [r6 + 0]
        mov r7, r1
        halt
    )";
    Program p = assembler::assemble(src, isa::FormatMode::Compact);
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("8-8", 32);
    cfg.mem.accessTime = 6;
    Simulator sim(cfg, p);
    sim.run();
    EXPECT_EQ(sim.dataMemory().readWord(0x4000), 0x1234u);
}

TEST(CompactFormat, TibHandlesLineStraddlingInstructions)
{
    const char *src = R"(
        nop
        nop
        nop
        li  r1, 0x777
        li  r6, 0x4000
        st  [r6 + 0]
        mov r7, r1
        halt
    )";
    Program p = assembler::assemble(src, isa::FormatMode::Compact);
    SimConfig cfg;
    cfg.fetch = tibConfigFor(32, 8);
    cfg.mem.accessTime = 3;
    Simulator sim(cfg, p);
    sim.run();
    EXPECT_EQ(sim.dataMemory().readWord(0x4000), 0x777u);
}

TEST(TibConflicts, AliasedTargetsEvictEachOther)
{
    // Two alternating branch targets mapping to the same (single)
    // TIB entry: every warm hit is destroyed by the other target.
    const char *src = R"(
        li  r2, 6
        lbr b0, t0
        pbr b0, 0, always
    t0: nop
        subi r2, r2, 1
        lbr b1, t1
        pbr b1, 0, nez, r2
        halt
    t1: nop
        lbr b0, t0
        pbr b0, 0, always
        nop
    )";
    Program p = assembler::assemble(src);
    SimConfig cfg;
    // 16-byte TIB, 16-byte entries => one entry for both targets.
    cfg.fetch = tibConfigFor(16, 16);
    Simulator sim(cfg, p);
    const auto res = sim.run();
    EXPECT_GT(res.counter("fetch.tib_misses"), 2u);

    // A two-entry TIB resolves the conflict: more hits, fewer misses.
    cfg.fetch = tibConfigFor(64, 16);
    const auto big = runSimulation(cfg, p);
    EXPECT_LT(big.counter("fetch.tib_misses"),
              res.counter("fetch.tib_misses"));
}

TEST(AluLatency, MultiCycleResultsStallDependents)
{
    const char *src = R"(
        li  r1, 5
        add r2, r1, r1    ; depends on r1
        add r3, r2, r2    ; depends on r2
        li  r6, 0x4000
        st  [r6 + 0]
        mov r7, r3
        halt
    )";
    Program p = assembler::assemble(src);
    SimConfig fast;
    fast.fetch = pipeConfigFor("16-16", 128);
    fast.cpu.aluLatency = 1;
    const auto r1 = runSimulation(fast, p);
    EXPECT_EQ(r1.counter("cpu.stall_reg_busy"), 0u);

    SimConfig slow = fast;
    slow.cpu.aluLatency = 3;
    Simulator sim(slow, p);
    const auto r3 = sim.run();
    EXPECT_GT(r3.counter("cpu.stall_reg_busy"), 0u);
    EXPECT_GT(r3.totalCycles, r1.totalCycles);
    EXPECT_EQ(sim.dataMemory().readWord(0x4000), 20u);
}

TEST(ExperimentSweep, TibStrategySupported)
{
    SweepSpec spec;
    spec.cacheSizes = {16, 64};
    spec.strategies = {"conv", "tib", "16-16"};
    const Table t = runCacheSweep(spec, bench().program).table;
    EXPECT_EQ(t.numCols(), 4u);
    EXPECT_GT(std::stoull(t.at(0, 2)), 0u); // tib column populated
    EXPECT_TRUE(sweepPointValid(spec, "tib", 16));
}

TEST(ExperimentSweep, TibConfigHelper)
{
    const auto cfg = tibConfigFor(128, 16);
    EXPECT_EQ(cfg.strategy, FetchStrategy::Tib);
    EXPECT_EQ(cfg.cacheBytes, 128u);
    EXPECT_EQ(cfg.lineBytes, 16u);
    SimConfig sc;
    sc.fetch = cfg;
    EXPECT_EQ(sc.fetchName(), "tib");
}

TEST(DcachePipelined, CorrectUnderPipelinedMemory)
{
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-32", 64);
    cfg.mem.accessTime = 6;
    cfg.mem.pipelined = true;
    cfg.mem.dcacheBytes = 256;
    Simulator sim(cfg, bench().program);
    const auto res = sim.run();
    verifyAll(sim);
    EXPECT_GT(res.counter("mem.dcache_hits"), 0u);
}

TEST(DcacheGeometry, BadSizesRejected)
{
    SimConfig cfg;
    cfg.mem.dcacheBytes = 100; // not a power of two
    EXPECT_THROW(MemorySystem{cfg.mem}, FatalError);
}
