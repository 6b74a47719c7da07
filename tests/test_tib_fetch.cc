#include <gtest/gtest.h>

#include "common/log.hh"

#include "assembler/assembler.hh"
#include "core/tib_fetch.hh"
#include "mem/memory_system.hh"
#include "sim/simulator.hh"
#include "workloads/benchmark_program.hh"
#include "workloads/reference.hh"

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
    TibFetchUnit unit;
    Cycle now = 0;
};

const char *loopProgram = R"(
    lbr b0, loop
loop:
    add r1, r1, r1
    add r2, r2, r2
    pbr b0, 1, always
    nop
)";

FetchConfig
tibCfg(unsigned bytes = 64, unsigned entry = 16)
{
    return tibConfigFor(bytes, entry);
}

} // namespace

TEST(TibFetch, DeliversSequentialProgram)
{
    const char *src = "li r1, 1\nli r2, 2\nadd r3, r1, r2\nhalt\n";
    Harness h(src, tibCfg());
    EXPECT_EQ(h.pull().inst.op, Opcode::Li);
    EXPECT_EQ(h.pull().inst.op, Opcode::Li);
    EXPECT_EQ(h.pull().inst.op, Opcode::Add);
    EXPECT_EQ(h.pull().inst.op, Opcode::Halt);
}

TEST(TibFetch, FirstTakenBranchMissesThenHits)
{
    Harness h(loopProgram, tibCfg());
    StatGroup stats;
    h.unit.regStats(stats, "f");
    h.pull(); // lbr
    auto iteration = [&]() {
        h.pull();
        h.pull();
        h.pull(); // pbr
        h.step();
        h.unit.branchResolved(true, *h.program.symbol("loop"));
        h.pull(); // delay slot
    };
    iteration();
    // The target fetch is launched lazily on the next tick, so run a
    // few more iterations and check the totals: the first taken
    // branch misses and allocates, every later one hits.
    iteration();
    iteration();
    iteration();
    EXPECT_EQ(stats.counterValue("f.tib_misses"), 1u);
    EXPECT_GE(stats.counterValue("f.tib_hits"), 2u);
}

TEST(TibFetch, HitSuppliesTargetFasterThanColdMiss)
{
    // Warm the TIB, then compare redirect-to-target-delivery latency
    // for a hit vs the cold miss with slow memory.  Note each
    // "iteration" below starts from the loop head the previous one
    // already pulled.
    MemSystemConfig mcfg;
    mcfg.accessTime = 6;
    Harness h(loopProgram, tibCfg(), mcfg);
    h.pull(); // lbr
    h.pull(); // add@4 (initial sequential supply)
    auto iteration = [&](Cycle *redirect_to_head) {
        h.pull();            // add@8
        h.pull();            // pbr@12
        h.step();
        h.unit.branchResolved(true, *h.program.symbol("loop"));
        h.pull();            // delay slot @16
        const Cycle at_slot = h.now;
        const auto fi = h.pull(); // loop head again
        EXPECT_EQ(fi.pc, *h.program.symbol("loop"));
        if (redirect_to_head)
            *redirect_to_head = h.now - at_slot;
    };
    Cycle cold = 0;
    Cycle warm = 0;
    iteration(&cold);
    iteration(&warm);
    // The cold miss pays the off-chip round trip; the hit supplies
    // the target from the on-chip buffer.
    EXPECT_GT(cold, 2u);
    EXPECT_LE(warm, 1u);
}

TEST(TibFetch, EveryInstructionTravelsTheBus)
{
    // No cache: re-executing the same loop keeps fetching off-chip.
    Harness h(loopProgram, tibCfg());
    StatGroup stats;
    h.unit.regStats(stats, "f");
    h.pull();
    const auto fetches_at = [&]() {
        return stats.counterValue("f.offchip_fetches");
    };
    auto iteration = [&]() {
        h.pull();
        h.pull();
        h.pull();
        h.step();
        h.unit.branchResolved(true, *h.program.symbol("loop"));
        h.pull();
    };
    iteration();
    const auto after_one = fetches_at();
    iteration();
    iteration();
    // Off-chip fetches keep growing (sequential bytes past the TIB
    // entry are refetched every iteration).
    EXPECT_GT(fetches_at(), after_one);
}

TEST(TibFetch, GeometryValidation)
{
    Program p = assembler::assemble("halt");
    MemSystemConfig mcfg;
    MemorySystem sys(mcfg);

    FetchConfig bad = tibCfg();
    bad.lineBytes = 12; // not a power of two
    EXPECT_THROW(TibFetchUnit(bad, p, sys), FatalError);

    FetchConfig small_buf = tibCfg();
    small_buf.iqBytes = 4;
    small_buf.iqbBytes = 4;
    EXPECT_THROW(TibFetchUnit(small_buf, p, sys), FatalError);

    FetchConfig odd_cap = tibCfg();
    odd_cap.cacheBytes = 24; // not a multiple of the entry size
    EXPECT_THROW(TibFetchUnit(odd_cap, p, sys), FatalError);
}

TEST(TibFetch, FullBenchmarkComputesCorrectly)
{
    static const auto bench = workloads::buildLivermoreBenchmark(0.05);
    for (unsigned size : {16u, 64u, 256u}) {
        SimConfig cfg;
        cfg.fetch = tibConfigFor(size, 16);
        cfg.mem.accessTime = 6;
        Simulator sim(cfg, bench.program);
        sim.run();
        for (std::size_t i = 0; i < bench.kernels.size(); ++i) {
            std::string diag;
            EXPECT_TRUE(workloads::verifyAgainstReference(
                sim.dataMemory(), bench.kernels[i], bench.codeInfo[i],
                &diag))
                << "size " << size << ": " << diag;
        }
    }
}

TEST(TibFetch, MoreOffchipTrafficThanPipe)
{
    // The paper's section 2.1 point: the TIB implies large amounts of
    // off-chip accessing compared to a cache of equal size.
    static const auto bench = workloads::buildLivermoreBenchmark(0.05);
    SimConfig tib;
    tib.fetch = tibConfigFor(128, 16);
    tib.mem.accessTime = 6;
    tib.mem.busWidthBytes = 8;
    const auto rt = runSimulation(tib, bench.program);

    SimConfig pipe;
    pipe.fetch = pipeConfigFor("16-16", 128);
    pipe.mem = tib.mem;
    const auto rp = runSimulation(pipe, bench.program);

    const auto tib_bytes = rt.counter("fetch.offchip_fetches") * 16;
    const auto pipe_bytes =
        (rp.counter("fetch.offchip_demand_lines") +
         rp.counter("fetch.offchip_prefetch_lines")) *
        16;
    EXPECT_GT(double(tib_bytes), 1.5 * double(pipe_bytes));
}

TEST(TibFetch, NotTakenBranchFallsThrough)
{
    const char *src = R"(
        lbr b0, 0
        pbr b0, 1, always
        nop
        add r1, r1, r1
        halt
    )";
    Harness h(src, tibCfg());
    h.pull();
    h.pull();
    h.unit.branchResolved(false, 0);
    EXPECT_EQ(h.pull().inst.op, Opcode::Nop);
    EXPECT_EQ(h.pull().inst.op, Opcode::Add);
    EXPECT_EQ(h.pull().inst.op, Opcode::Halt);
}
