#include <gtest/gtest.h>

#include "common/abort.hh"
#include "common/log.hh"

#include "assembler/assembler.hh"
#include "sim/simulator.hh"
#include "workloads/benchmark_program.hh"

using namespace pipesim;

namespace
{

const char *tinyProgram = R"(
    li r1, 1
    li r2, 2
    add r3, r1, r2
    halt
)";

} // namespace

TEST(SimulatorTest, RunsToCompletion)
{
    Program p = assembler::assemble(tinyProgram);
    SimConfig cfg;
    Simulator sim(cfg, p);
    EXPECT_FALSE(sim.done());
    const auto res = sim.run();
    EXPECT_TRUE(sim.done());
    EXPECT_EQ(res.instructions, 4u);
    EXPECT_GT(res.totalCycles, 0u);
}

TEST(SimulatorTest, StepAdvancesOneCycle)
{
    Program p = assembler::assemble(tinyProgram);
    SimConfig cfg;
    Simulator sim(cfg, p);
    EXPECT_EQ(sim.now(), 0u);
    sim.step();
    EXPECT_EQ(sim.now(), 1u);
}

TEST(SimulatorTest, ConfigNamesBothStrategies)
{
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-32", 64);
    EXPECT_EQ(cfg.fetchName(), "16-32");
    cfg.fetch = conventionalConfigFor(64);
    EXPECT_EQ(cfg.fetchName(), "conv");
}

TEST(SimulatorTest, TableIIConfigParameters)
{
    const auto c88 = pipeConfigFor("8-8", 128);
    EXPECT_EQ(c88.lineBytes, 8u);
    EXPECT_EQ(c88.iqBytes, 8u);
    EXPECT_EQ(c88.iqbBytes, 8u);
    const auto c1632 = pipeConfigFor("16-32", 128);
    EXPECT_EQ(c1632.lineBytes, 32u);
    EXPECT_EQ(c1632.iqBytes, 16u);
    EXPECT_EQ(c1632.iqbBytes, 32u);
    const auto c3232 = pipeConfigFor("32-32", 128);
    EXPECT_EQ(c3232.lineBytes, 32u);
    EXPECT_EQ(c3232.iqBytes, 32u);
    EXPECT_THROW(pipeConfigFor("64-64", 128), FatalError);
    EXPECT_EQ(tableIIConfigNames().size(), 4u);
}

TEST(SimulatorTest, ConventionalLineClampedToCacheSize)
{
    const auto cfg = conventionalConfigFor(8, 16);
    EXPECT_EQ(cfg.lineBytes, 8u);
}

TEST(SimulatorTest, ResultCountersSnapshot)
{
    Program p = assembler::assemble(tinyProgram);
    SimConfig cfg;
    const auto res = runSimulation(cfg, p);
    EXPECT_EQ(res.counter("cpu.retired"), 4u);
    EXPECT_EQ(res.counter("not.a.counter"), 0u);
    EXPECT_GT(res.counters.size(), 10u);
}

TEST(SimulatorTest, DeterministicAcrossRuns)
{
    Program p = assembler::assemble(tinyProgram);
    SimConfig cfg;
    const auto a = runSimulation(cfg, p);
    const auto b = runSimulation(cfg, p);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.counters, b.counters);
}

TEST(SimulatorTest, DeadlockDetected)
{
    // A store whose data never arrives wedges the machine; the
    // progress watchdog must fire rather than spin forever.
    const char *src = R"(
        li r1, 0x4000
        ld [r1 + 0]
        mov r2, r7
        mov r2, r7     ; LDQ empty forever
        halt
    .data 0x4000
        .word 1
    )";
    Program p = assembler::assemble(src);
    SimConfig cfg;
    cfg.progressWindow = 5000;
    Simulator sim(cfg, p);
    try {
        sim.run();
        FAIL() << "expected SimAbort";
    } catch (const SimAbort &e) {
        EXPECT_NE(std::string(e.what()).find("deadlocked"),
                  std::string::npos);
        // The abort carries a full machine snapshot for forensics.
        ASSERT_TRUE(e.hasSnapshot());
        const MachineSnapshot &snap = e.snapshot();
        EXPECT_GT(snap.cycle, 5000u);
        EXPECT_GT(snap.instructionsRetired, 0u);
        EXPECT_FALSE(snap.lastRetiredPcs.empty());
        // Each component contributed its dumpState() text.
        EXPECT_NE(snap.pipelineState.find("pipeline:"),
                  std::string::npos);
        EXPECT_FALSE(snap.fetchState.empty());
        EXPECT_NE(snap.memoryState.find("input bus"),
                  std::string::npos);
        const std::string report = snap.toString();
        EXPECT_NE(report.find("machine snapshot at cycle"),
                  std::string::npos);
        EXPECT_NE(report.find("last retired PCs"), std::string::npos);
    }
}

TEST(SimulatorTest, MaxCyclesEnforced)
{
    const char *src = R"(
        lbr b0, loop
    loop:
        nop
        pbr b0, 1, always
        nop
    )";
    Program p = assembler::assemble(src);
    SimConfig cfg;
    cfg.maxCycles = 2000;
    Simulator sim(cfg, p);
    try {
        sim.run();
        FAIL() << "expected SimAbort";
    } catch (const SimAbort &e) {
        EXPECT_NE(std::string(e.what()).find("exceeded"),
                  std::string::npos);
        ASSERT_TRUE(e.hasSnapshot());
        EXPECT_GT(e.snapshot().cycle, 2000u);
    }
}

TEST(SimulatorTest, StatsDumpIsPopulated)
{
    Program p = assembler::assemble(tinyProgram);
    SimConfig cfg;
    Simulator sim(cfg, p);
    sim.run();
    const std::string dump = sim.stats().dump();
    EXPECT_NE(dump.find("cpu.retired"), std::string::npos);
    EXPECT_NE(dump.find("fetch."), std::string::npos);
    EXPECT_NE(dump.find("mem."), std::string::npos);
}

TEST(SimulatorTest, HandTickedLoopEqualsRun)
{
    // A caller may drive the three component ticks itself (a traced
    // or instrumented loop does) and must get exactly what run()
    // gets: every per-cycle side effect, the CPI-stack accounting
    // included, lives inside the component ticks.
    static const auto bench = workloads::buildLivermoreBenchmark(0.03);
    const FetchConfig fetches[] = {pipeConfigFor("16-16", 64),
                                   conventionalConfigFor(64, 16),
                                   tibConfigFor(64, 16)};
    for (const FetchConfig &fetch : fetches) {
        for (bool ipriority : {true, false}) {
            SimConfig cfg;
            cfg.fetch = fetch;
            cfg.mem.accessTime = 6;
            cfg.mem.instructionPriority = ipriority;
            const std::string what =
                cfg.fetchName() + (ipriority ? " ipriority" : " dpriority");

            const SimResult want = runSimulation(cfg, bench.program);

            Simulator sim(cfg, bench.program);
            Cycle now = 0;
            while (!sim.done()) {
                ASSERT_LT(now, cfg.maxCycles) << what;
                sim.fetchUnit().tick(now);
                sim.memorySystem().tick(now);
                sim.pipeline().tick(now);
                ++now;
            }
            const SimResult got = sim.result();
            EXPECT_EQ(got.totalCycles, want.totalCycles) << what;
            EXPECT_EQ(got.instructions, want.instructions) << what;
            EXPECT_EQ(got.counters, want.counters) << what;
            EXPECT_GT(got.counter("cpi_stack.issue"), 0u) << what;
        }
    }
}
