#include <gtest/gtest.h>

#include "common/log.hh"

#include "assembler/assembler.hh"
#include "core/conventional_fetch.hh"
#include "mem/memory_system.hh"

using namespace pipesim;
using isa::Opcode;

namespace
{

struct Harness
{
    Harness(const std::string &src, FetchConfig fcfg,
            MemSystemConfig mcfg = {})
        : program(assembler::assemble(src)), sys(mcfg),
          unit(fcfg, program, sys)
    {
    }

    void
    step()
    {
        unit.tick(now);
        sys.tick(now);
        ++now;
    }

    isa::FetchedInst
    pull(unsigned max_cycles = 200)
    {
        for (unsigned i = 0; i < max_cycles; ++i) {
            if (unit.instructionReady())
                return unit.take();
            step();
        }
        throw std::runtime_error("no instruction within limit");
    }

    Program program;
    MemorySystem sys;
    ConventionalFetchUnit unit;
    Cycle now = 0;
};

const char *straightLine = R"(
    li r1, 1
    li r2, 2
    add r3, r1, r2
    sub r4, r3, r1
    nop
    nop
    halt
)";

FetchConfig
convCfg(unsigned cache = 128, unsigned line = 16)
{
    FetchConfig f;
    f.strategy = FetchStrategy::Conventional;
    f.cacheBytes = cache;
    f.lineBytes = line;
    return f;
}

} // namespace

TEST(ConventionalFetch, DeliversProgramInOrder)
{
    Harness h(straightLine, convCfg());
    const Opcode expect[] = {Opcode::Li,  Opcode::Li,  Opcode::Add,
                             Opcode::Sub, Opcode::Nop, Opcode::Nop,
                             Opcode::Halt};
    Addr pc = 0;
    for (Opcode op : expect) {
        const auto fi = h.pull();
        EXPECT_EQ(fi.inst.op, op);
        EXPECT_EQ(fi.pc, pc);
        pc += fi.inst.sizeBytes();
    }
}

TEST(ConventionalFetch, DemandMissFetchesBusRegion)
{
    MemSystemConfig mcfg;
    mcfg.accessTime = 1;
    mcfg.busWidthBytes = 8;
    Harness h(straightLine, convCfg(), mcfg);
    h.pull();
    // An 8-byte bus region covers two fixed-32 instructions.
    EXPECT_TRUE(h.unit.cache().bytesValid(0, 8));
}

TEST(ConventionalFetch, AlwaysPrefetchFillsNextInstruction)
{
    // With an 8-byte bus the demand region covers instructions 0 and
    // 4, so after referencing instruction 4 the prefetcher (not a
    // demand miss) fetches instruction 8.
    MemSystemConfig mcfg;
    mcfg.busWidthBytes = 8;
    Harness h(straightLine, convCfg(), mcfg);
    h.pull(); // @0 (demand region fills 0..7)
    h.pull(); // @4: reference queues prefetch of 8
    for (int i = 0; i < 10; ++i)
        h.step();
    StatGroup stats;
    h.unit.regStats(stats, "f");
    EXPECT_GT(stats.counterValue("f.prefetch_fetches"), 0u);
    EXPECT_TRUE(h.unit.cache().bytesValid(8, 4));
}

TEST(ConventionalFetch, PrefetchCrossesLineBoundaryAndRetags)
{
    // Single-frame cache: prefetching across the line boundary
    // retags the only frame (the always-prefetch policy does this
    // "even if this address maps into the next cache line").
    Harness h(straightLine, convCfg(16, 16));
    // Pull the four instructions of line 0; the reference to the
    // last one prefetches into the next line, evicting line 0.
    h.pull();
    h.pull();
    h.pull();
    h.pull();
    for (int i = 0; i < 10; ++i)
        h.step();
    EXPECT_TRUE(h.unit.cache().linePresent(16));
    EXPECT_FALSE(h.unit.cache().linePresent(0));
}

TEST(ConventionalFetch, SingleOutstandingRequest)
{
    // A demand miss while a prefetch is in flight must wait for the
    // prefetch to finish (Hill's model cost).  We observe it
    // indirectly: total requests never overlap, so with access time
    // T the delivery of back-to-back misses is serialised.
    MemSystemConfig mcfg;
    mcfg.accessTime = 6;
    Harness h(straightLine, convCfg(), mcfg);
    StatGroup stats;
    h.unit.regStats(stats, "f");
    h.pull();
    const Cycle after_first = h.now;
    h.pull();
    h.pull();
    // Two more instructions = at least one more serialised request.
    EXPECT_GE(h.now, after_first);
    EXPECT_GE(stats.counterValue("f.demand_fetches") +
                  stats.counterValue("f.prefetch_fetches"),
              2u);
}

TEST(ConventionalFetch, TakenBranchAfterDelaySlots)
{
    const char *src = R"(
        lbr  b0, target
        pbr  b0, 2, always
        nop
        nop
        add r1, r1, r1
    target:
        halt
    )";
    Harness h(src, convCfg());
    EXPECT_EQ(h.pull().inst.op, Opcode::Lbr);
    EXPECT_EQ(h.pull().inst.op, Opcode::Pbr);
    h.step();
    h.unit.branchResolved(true, *h.program.symbol("target"));
    EXPECT_EQ(h.pull().inst.op, Opcode::Nop);
    EXPECT_EQ(h.pull().inst.op, Opcode::Nop);
    const auto fi = h.pull();
    EXPECT_EQ(fi.inst.op, Opcode::Halt);
    EXPECT_EQ(fi.pc, *h.program.symbol("target"));
}

TEST(ConventionalFetch, BlocksAtUnresolvedBranch)
{
    const char *src = R"(
        pbr b0, 0, always
        nop
        halt
    )";
    Harness h(src, convCfg());
    h.pull();
    for (int i = 0; i < 10; ++i) {
        EXPECT_FALSE(h.unit.instructionReady());
        h.step();
    }
    h.unit.branchResolved(true, 4);
    EXPECT_EQ(h.pull().inst.op, Opcode::Nop);
}

TEST(ConventionalFetch, HitDeliversEveryCycleOnWarmLoop)
{
    const char *src = R"(
        lbr b0, loop
    loop:
        add r1, r1, r1
        add r2, r2, r2
        pbr b0, 1, always
        nop
    )";
    Harness h(src, convCfg());
    h.pull(); // lbr
    auto iteration = [&]() {
        h.pull();
        h.pull();
        h.pull(); // pbr
        h.step();
        h.unit.branchResolved(true, *h.program.symbol("loop"));
        h.pull(); // delay slot
    };
    iteration(); // cold
    const auto misses = h.unit.cache().misses();
    iteration(); // warm: no new misses
    iteration();
    EXPECT_EQ(h.unit.cache().misses(), misses);
}

TEST(ConventionalFetch, MissStatsCountDistinctStalls)
{
    MemSystemConfig mcfg;
    mcfg.accessTime = 6;
    Harness h(straightLine, convCfg(), mcfg);
    h.pull();
    // One demand miss recorded for the first instruction even though
    // the stall lasted several cycles.
    EXPECT_EQ(h.unit.cache().misses(), 1u);
}

TEST(ConventionalFetch, TakeWithoutReadyPanics)
{
    Harness h(straightLine, convCfg());
    EXPECT_THROW(h.unit.take(), PanicError);
}
