#include <gtest/gtest.h>

#include "common/log.hh"

#include "assembler/assembler.hh"
#include "sim/simulator.hh"
#include "workloads/benchmark_program.hh"
#include "workloads/reference.hh"

using namespace pipesim;

namespace
{

/** Re-load the same word many times; hits should dominate. */
const char *reloadProgram = R"(
    li  r1, 0x4000
    li  r2, 8         ; iterations
    li  r3, 0         ; sum
    lbr b0, loop
loop:
    ld  [r1 + 0]
    add r3, r3, r7
    subi r2, r2, 1
    pbr b0, 0, nez, r2
    li  r4, 0x4100
    st  [r4 + 0]
    mov r7, r3
    halt
.data 0x4000
    .word 5
.data 0x4100
    .word 0
)";

SimResult
runWith(const char *src, unsigned dcache_bytes, Word *result,
        unsigned access_time = 6)
{
    Program p = assembler::assemble(src);
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);
    cfg.mem.accessTime = access_time;
    cfg.mem.dcacheBytes = dcache_bytes;
    Simulator sim(cfg, p);
    const auto res = sim.run();
    if (result)
        *result = sim.dataMemory().readWord(0x4100);
    return res;
}

} // namespace

TEST(DataCacheExt, DisabledByDefault)
{
    Program p = assembler::assemble("halt");
    SimConfig cfg;
    MemorySystem mem(cfg.mem);
    EXPECT_FALSE(mem.hasDcache());
}

TEST(DataCacheExt, RepeatLoadsHit)
{
    Word sum = 0;
    const auto res = runWith(reloadProgram, 256, &sum);
    EXPECT_EQ(sum, 40u);
    EXPECT_EQ(res.counter("mem.dcache_misses"), 1u);
    EXPECT_EQ(res.counter("mem.dcache_hits"), 7u);
}

TEST(DataCacheExt, HitsMakeTheLoopFaster)
{
    Word sum_off = 0;
    Word sum_on = 0;
    const auto off = runWith(reloadProgram, 0, &sum_off);
    const auto on = runWith(reloadProgram, 256, &sum_on);
    EXPECT_EQ(sum_off, sum_on);
    EXPECT_LT(on.totalCycles, off.totalCycles);
}

TEST(DataCacheExt, StoreThenLoadCoherent)
{
    const char *src = R"(
        li  r1, 0x4000
        ld  [r1 + 0]      ; warm the cache line
        mov r2, r7
        st  [r1 + 0]      ; overwrite (write-through + update)
        li  r3, 99
        mov r7, r3
        ld  [r1 + 0]      ; must see 99 (cache hit)
        li  r4, 0x4100
        st  [r4 + 0]
        mov r7, r7
        halt
    .data 0x4000
        .word 7
    .data 0x4100
        .word 0
    )";
    Word result = 0;
    const auto res = runWith(src, 256, &result);
    EXPECT_EQ(result, 99u);
    EXPECT_GE(res.counter("mem.dcache_hits"), 1u);
}

TEST(DataCacheExt, FpuAccessesBypassTheCache)
{
    const char *src = R"(
        li  r1, 0x7f00     ; FPU base
        li  r2, 0x4000
        ld  [r2 + 0]       ; 2.0
        ld  [r2 + 4]       ; 3.0
        st  [r1 + 32]      ; mul A
        mov r7, r7
        st  [r1 + 36]      ; mul B
        mov r7, r7
        ld  [r1 + 40]      ; result: must come from the FPU
        st  [r2 + 8]
        mov r7, r7
        halt
    .data 0x4000
        .float 2.0, 3.0
        .word 0
    )";
    Program p = assembler::assemble(src);
    SimConfig cfg;
    cfg.mem.dcacheBytes = 256;
    Simulator sim(cfg, p);
    sim.run();
    const Word bits = sim.dataMemory().readWord(0x4008);
    EXPECT_EQ(bits, 0x40c00000u); // 6.0f
}

TEST(DataCacheExt, BenchmarkCorrectWithDcache)
{
    static const auto bench = workloads::buildLivermoreBenchmark(0.05);
    for (unsigned size : {64u, 512u}) {
        SimConfig cfg;
        cfg.fetch = pipeConfigFor("16-16", 64);
        cfg.mem.accessTime = 6;
        cfg.mem.dcacheBytes = size;
        Simulator sim(cfg, bench.program);
        sim.run();
        for (std::size_t i = 0; i < bench.kernels.size(); ++i) {
            std::string diag;
            EXPECT_TRUE(workloads::verifyAgainstReference(
                sim.dataMemory(), bench.kernels[i], bench.codeInfo[i],
                &diag))
                << "dcache " << size << ": " << diag;
        }
    }
}

TEST(DataCacheExt, BenchmarkFasterWithDcache)
{
    static const auto bench = workloads::buildLivermoreBenchmark(0.05);
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 64);
    cfg.mem.accessTime = 6;
    cfg.mem.dcacheBytes = 0;
    const auto off = runSimulation(cfg, bench.program);
    cfg.mem.dcacheBytes = 1024;
    const auto on = runSimulation(cfg, bench.program);
    EXPECT_LT(on.totalCycles, off.totalCycles);
    EXPECT_GT(on.counter("mem.dcache_hits"), 0u);
    // Off-chip data traffic shrinks accordingly.
    EXPECT_LT(on.counter("mem.data_requests"),
              off.counter("mem.data_requests"));
}

TEST(DataCacheExt, InOrderDeliveryAcrossHitAndMiss)
{
    // A miss followed by a hit: the hit's data must not enter the
    // LDQ before the miss's (r7 pops would otherwise swap values).
    const char *src = R"(
        li  r1, 0x4000
        ld  [r1 + 0]      ; warm word 0
        mov r2, r7
        ld  [r1 + 64]     ; miss (different line)
        ld  [r1 + 0]      ; hit, but younger
        sub r3, r7, r7    ; miss_value - hit_value = 11 - 5 = 6
        li  r4, 0x4100
        st  [r4 + 0]
        mov r7, r3
        halt
    .data 0x4000
        .word 5
        .space 60
        .word 11
    .data 0x4100
        .word 0
    )";
    Word result = 0;
    runWith(src, 256, &result);
    EXPECT_EQ(result, 6u);
}
