#include <gtest/gtest.h>

#include <sstream>

#include "common/log.hh"

#include "assembler/assembler.hh"
#include "core/pipe_fetch.hh"
#include "mem/memory_system.hh"

using namespace pipesim;
using isa::Opcode;

namespace
{

/** Drives a fetch unit against a memory system, cycle by cycle. */
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
        if (gated)
            skipped += !unit.tickGated(now);
        else
            unit.tick(now);
        sys.tick(now);
        ++now;
    }

    /** Step until an instruction is ready; return it. */
    isa::FetchedInst
    pull(unsigned max_cycles = 100)
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
    PipeFetchUnit unit;
    Cycle now = 0;
    bool gated = false;    //!< step() with FetchUnit::tickGated
    unsigned skipped = 0;  //!< ticks the gate skipped
};

const char *straightLine = R"(
    li r1, 1
    li r2, 2
    add r3, r1, r2
    sub r4, r3, r1
    nop
    nop
    nop
    nop
    halt
)";

FetchConfig
cfg1616(unsigned cache = 128)
{
    FetchConfig f;
    f.strategy = FetchStrategy::Pipe;
    f.cacheBytes = cache;
    f.lineBytes = 16;
    f.iqBytes = 16;
    f.iqbBytes = 16;
    return f;
}

} // namespace

TEST(PipeFetch, DeliversProgramInOrder)
{
    Harness h(straightLine, cfg1616());
    const Opcode expect[] = {Opcode::Li, Opcode::Li, Opcode::Add,
                             Opcode::Sub, Opcode::Nop, Opcode::Nop,
                             Opcode::Nop, Opcode::Nop, Opcode::Halt};
    Addr pc = 0;
    for (Opcode op : expect) {
        const auto fi = h.pull();
        EXPECT_EQ(fi.inst.op, op);
        EXPECT_EQ(fi.pc, pc);
        pc += fi.inst.sizeBytes();
    }
}

TEST(PipeFetch, FirstInstructionWaitsForMemory)
{
    MemSystemConfig mcfg;
    mcfg.accessTime = 6;
    Harness h(straightLine, cfg1616(), mcfg);
    EXPECT_FALSE(h.unit.instructionReady());
    // tick 0 requests; data starts arriving at access time.
    for (unsigned i = 0; i < 7; ++i)
        h.step();
    EXPECT_TRUE(h.unit.instructionReady());
}

TEST(PipeFetch, StreamsInstructionsAsBeatsArrive)
{
    MemSystemConfig mcfg;
    mcfg.accessTime = 2;
    mcfg.busWidthBytes = 4; // one instruction per beat
    Harness h(straightLine, cfg1616(), mcfg);
    // After the first beat lands, one instruction is consumable even
    // though the line is still arriving.
    while (!h.unit.instructionReady())
        h.step();
    EXPECT_EQ(h.unit.take().inst.op, Opcode::Li);
    // The next beat arrives next cycle.
    h.step();
    EXPECT_TRUE(h.unit.instructionReady());
}

TEST(PipeFetch, FetchedLinesLandInTheCache)
{
    MemSystemConfig mcfg;
    mcfg.accessTime = 6;
    Harness h(straightLine, cfg1616(), mcfg);
    for (int i = 0; i < 9; ++i)
        h.pull(200);
    // Both code lines are now resident and fully valid.
    EXPECT_TRUE(h.unit.cache().lineValid(0));
    EXPECT_TRUE(h.unit.cache().lineValid(16));
}

TEST(PipeFetch, TakenBranchRedirectsAfterDelaySlots)
{
    const char *src = R"(
        lbr  b0, target
        pbr  b0, 2, always
        nop              ; slot 1
        nop              ; slot 2
        add r1, r1, r1   ; wrong path
        add r2, r2, r2   ; wrong path
    target:
        halt
    )";
    Harness h(src, cfg1616());
    EXPECT_EQ(h.pull().inst.op, Opcode::Lbr);
    EXPECT_EQ(h.pull().inst.op, Opcode::Pbr);
    // Resolution arrives one "pipeline cycle" later.
    h.step();
    h.unit.branchResolved(true, *h.program.symbol("target"));
    EXPECT_EQ(h.pull().inst.op, Opcode::Nop);
    EXPECT_EQ(h.pull().inst.op, Opcode::Nop);
    const auto fi = h.pull();
    EXPECT_EQ(fi.inst.op, Opcode::Halt);
    EXPECT_EQ(fi.pc, *h.program.symbol("target"));
}

TEST(PipeFetch, NotTakenContinuesSequentially)
{
    const char *src = R"(
        lbr  b0, 0
        pbr  b0, 1, always
        nop
        add r1, r1, r1
        halt
    )";
    Harness h(src, cfg1616());
    h.pull();                      // lbr
    h.pull();                      // pbr
    h.unit.branchResolved(false, 0);
    EXPECT_EQ(h.pull().inst.op, Opcode::Nop);
    EXPECT_EQ(h.pull().inst.op, Opcode::Add);
    EXPECT_EQ(h.pull().inst.op, Opcode::Halt);
}

TEST(PipeFetch, BlocksAtUnresolvedBranch)
{
    const char *src = R"(
        pbr  b0, 0, always
        nop
        halt
    )";
    Harness h(src, cfg1616());
    h.pull(); // pbr, zero delay slots
    for (int i = 0; i < 20; ++i) {
        EXPECT_FALSE(h.unit.instructionReady());
        h.step();
    }
    h.unit.branchResolved(true, 4);
    EXPECT_EQ(h.pull().inst.op, Opcode::Nop);
}

TEST(PipeFetch, LoopBodyServedFromCacheAfterFirstIteration)
{
    const char *src = R"(
        lbr b0, loop
    loop:
        add r1, r1, r1
        add r2, r2, r2
        pbr b0, 1, always
        nop
    )";
    Harness h(src, cfg1616());
    h.pull(); // lbr
    // Iteration 1 (cold).
    h.pull();
    h.pull();
    h.pull(); // pbr
    h.step();
    h.unit.branchResolved(true, *h.program.symbol("loop"));
    h.pull(); // delay slot

    const auto misses_cold = h.unit.cache().misses();
    // Several warm iterations must add no new misses.
    for (int iter = 0; iter < 3; ++iter) {
        h.pull();
        h.pull();
        h.pull();
        h.step();
        h.unit.branchResolved(true, *h.program.symbol("loop"));
        h.pull();
    }
    EXPECT_EQ(h.unit.cache().misses(), misses_cold);
}

TEST(PipeFetch, GuaranteedOnlyBlocksSpeculativePrefetch)
{
    const char *src = R"(
        pbr  b0, 1, always
        nop
        add r1, r1, r1
        add r2, r2, r2
        add r3, r3, r3
        add r4, r4, r4
        add r5, r5, r5
        halt
    )";
    FetchConfig fcfg = cfg1616(32);
    fcfg.lineBytes = 8;
    fcfg.iqBytes = 8;
    fcfg.iqbBytes = 8;
    fcfg.offchipPolicy = OffchipPolicy::GuaranteedOnly;
    Harness h(src, fcfg);
    StatGroup stats;
    h.unit.regStats(stats, "f");
    h.pull(); // pbr (line 0 was demand-fetched: guaranteed)
    // While the branch is unresolved, lines beyond the delay slot are
    // not guaranteed; the unit must report blocked fill opportunities
    // rather than fetch them.
    for (int i = 0; i < 30; ++i)
        h.step();
    EXPECT_GT(stats.counterValue("f.blocked_on_guarantee"), 0u);
}

TEST(PipeFetch, TruePrefetchRunsAhead)
{
    const char *src = R"(
        pbr  b0, 1, always
        nop
        add r1, r1, r1
        add r2, r2, r2
        add r3, r3, r3
        add r4, r4, r4
        add r5, r5, r5
        halt
    )";
    FetchConfig fcfg = cfg1616(32);
    fcfg.lineBytes = 8;
    fcfg.iqBytes = 8;
    fcfg.iqbBytes = 8;
    fcfg.offchipPolicy = OffchipPolicy::TruePrefetch;
    Harness h(src, fcfg);
    StatGroup stats;
    h.unit.regStats(stats, "f");
    h.pull(); // pbr
    for (int i = 0; i < 30; ++i)
        h.step();
    EXPECT_EQ(stats.counterValue("f.blocked_on_guarantee"), 0u);
    EXPECT_GT(stats.counterValue("f.offchip_prefetch_lines") +
                  stats.counterValue("f.offchip_demand_lines"),
              1u);
}

TEST(PipeFetch, SquashDiscardsWrongPathBytes)
{
    const char *src = R"(
        lbr  b0, target
        pbr  b0, 1, always
        nop
        add r1, r1, r1   ; wrong path, will be prefetched
        add r2, r2, r2
        add r3, r3, r3
    target:
        halt
    )";
    Harness h(src, cfg1616());
    StatGroup stats;
    h.unit.regStats(stats, "f");
    h.pull(); // lbr
    h.pull(); // pbr
    // Let sequential prefetch run ahead before resolving.
    for (int i = 0; i < 10; ++i)
        h.step();
    h.unit.branchResolved(true, *h.program.symbol("target"));
    h.pull(); // delay slot nop
    EXPECT_EQ(h.pull().inst.op, Opcode::Halt);
    EXPECT_GT(stats.counterValue("f.squashed_bytes"), 0u);
}

TEST(PipeFetch, ConfigValidation)
{
    Program p = assembler::assemble("halt");
    MemSystemConfig mcfg;
    MemorySystem sys(mcfg);

    FetchConfig bad = cfg1616();
    bad.iqbBytes = 8; // smaller than the 16-byte line
    EXPECT_THROW(PipeFetchUnit(bad, p, sys), FatalError);

    FetchConfig tiny = cfg1616();
    tiny.iqBytes = 2;
    EXPECT_THROW(PipeFetchUnit(tiny, p, sys), FatalError);
}

TEST(PipeFetch, TakeWithoutReadyPanics)
{
    Harness h(straightLine, cfg1616());
    EXPECT_THROW(h.unit.take(), PanicError);
}

TEST(PipeFetch, GatedTickWakesOnABranchResolution)
{
    // Behind an unresolved zero-slot branch the unit fills its buffer
    // with the wrong path and goes idle.  The resolution alone (no
    // take, no memory callback) must wake a gated unit: it squashes
    // the buffer and fetches the target on the cycle a ticking unit
    // does.
    const char *src = R"(
        lbr  b0, target
        pbr  b0, 0, always
        add r1, r1, r1
        add r1, r1, r1
        add r1, r1, r1
        add r1, r1, r1
        add r1, r1, r1
        add r1, r1, r1
        add r1, r1, r1
        add r1, r1, r1
        add r1, r1, r1
        add r1, r1, r1
        add r1, r1, r1
        add r1, r1, r1
    target:
        halt
    )";
    Harness ticking(src, cfg1616()), gated(src, cfg1616());
    gated.gated = true;
    const auto state = [](const Harness &h) {
        std::ostringstream os;
        h.unit.dumpState(os);
        return os.str();
    };
    const auto stepBoth = [&](int cycles) {
        for (int i = 0; i < cycles; ++i) {
            ticking.step();
            gated.step();
            ASSERT_EQ(state(gated), state(ticking)) << "cycle " << gated.now;
        }
    };
    for (Harness *h : {&ticking, &gated}) {
        EXPECT_EQ(h->pull().inst.op, Opcode::Lbr);
        EXPECT_EQ(h->pull().inst.op, Opcode::Pbr);
    }
    stepBoth(30);
    EXPECT_GT(gated.skipped, 0u);
    for (Harness *h : {&ticking, &gated})
        h->unit.branchResolved(true, *h->program.symbol("target"));
    stepBoth(30);
    for (Harness *h : {&ticking, &gated}) {
        const auto fi = h->pull();
        EXPECT_EQ(fi.inst.op, Opcode::Halt);
        EXPECT_EQ(fi.pc, *h->program.symbol("target"));
    }
    EXPECT_EQ(gated.now, ticking.now);
}
