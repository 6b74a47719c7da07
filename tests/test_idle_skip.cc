/**
 * The simulator loop's tick gating and idle skip (sim/simulator.hh):
 * Simulator::run() skips fetch and memory ticks that would repeat an
 * idle one and jumps over cycles that only repeat the previous one,
 * and must give exactly what ticking every cycle gives — total
 * cycles, instructions, every counter, the full statistics dump
 * (queue-occupancy histograms included), the Livermore kernels'
 * outputs and the checkpointed machine state — across memory speeds,
 * memory organizations, bus widths and fetch strategies.  A watchdog
 * must also abort at the same cycle with the same message.
 */

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <vector>

#include "common/abort.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workloads/benchmark_program.hh"
#include "workloads/reference.hh"

using namespace pipesim;

namespace
{

const workloads::Benchmark &
benchmark()
{
    static const auto bench = workloads::buildLivermoreBenchmark(0.02);
    return bench;
}

struct Case
{
    std::string name;
    SimConfig cfg;
};

void
PrintTo(const Case &c, std::ostream *os)
{
    *os << c.name;
}

std::vector<Case>
matrix()
{
    const auto machine = [](const FetchConfig &fetch) {
        SimConfig cfg;
        cfg.fetch = fetch;
        return cfg;
    };
    SimConfig demandOnly = machine(conventionalConfigFor(64));
    demandOnly.fetch.alwaysPrefetch = false;
    SimConfig guaranteed = machine(pipeConfigFor("16-16", 64));
    guaranteed.fetch.offchipPolicy = OffchipPolicy::GuaranteedOnly;
    // Register stalls last more than one cycle only with a longer ALU
    // latency; their end is the pipeline's one clock event.
    SimConfig slowAlu = machine(pipeConfigFor("16-16", 64));
    slowAlu.cpu.aluLatency = 3;
    const std::vector<Case> strategies = {
        {"conv", machine(conventionalConfigFor(64))},
        {"conv_demand", demandOnly},
        {"p8x8", machine(pipeConfigFor("8-8", 64))},
        {"p16x16", machine(pipeConfigFor("16-16", 64))},
        {"p32x32", machine(pipeConfigFor("32-32", 64))},
        {"tib", machine(tibConfigFor(64))},
        {"p16x16_guaranteed", guaranteed},
        {"p16x16_alu3", slowAlu},
    };

    std::vector<Case> cases;
    for (const Case &s : strategies) {
        for (unsigned access : {1u, 2u, 3u, 6u}) {
            for (bool pipelined : {false, true}) {
                for (unsigned bus : {4u, 8u}) {
                    for (unsigned dcache : {0u, 64u}) {
                        Case c = s;
                        c.cfg.mem.accessTime = access;
                        c.cfg.mem.pipelined = pipelined;
                        c.cfg.mem.busWidthBytes = bus;
                        c.cfg.mem.dcacheBytes = dcache;
                        c.name = s.name + "_t" +
                                 std::to_string(access) +
                                 (pipelined ? "_pipe" : "_nonpipe") +
                                 "_bus" + std::to_string(bus) +
                                 (dcache ? "_dcache" : "");
                        cases.push_back(c);
                    }
                }
            }
        }
    }
    return cases;
}

void
expectKernelsPass(Simulator &sim)
{
    const auto &bench = benchmark();
    for (std::size_t k = 0; k < bench.kernels.size(); ++k) {
        std::string diag;
        EXPECT_TRUE(workloads::verifyAgainstReference(
            sim.dataMemory(), bench.kernels[k], bench.codeInfo[k], &diag))
            << "kernel " << k + 1 << ": " << diag;
    }
}

class IdleSkip : public ::testing::TestWithParam<Case>
{
};

TEST_P(IdleSkip, RunMatchesEveryCycleLoop)
{
    const SimConfig &cfg = GetParam().cfg;
    const Program &program = benchmark().program;

    Simulator skipping(cfg, program);
    const SimResult a = skipping.run();

    Simulator ticking(cfg, program);
    while (!ticking.done())
        ticking.step();
    const SimResult b = ticking.result();

    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(skipping.now(), ticking.now());
    EXPECT_EQ(skipping.stats().dump(), ticking.stats().dump());
    EXPECT_EQ(ticking.ticksExecuted(), ticking.now());
    EXPECT_EQ(ticking.fetchTicksExecuted(), ticking.now());
    EXPECT_EQ(ticking.memTicksExecuted(), ticking.now());
    EXPECT_LE(skipping.ticksExecuted(), skipping.now());
    EXPECT_LE(skipping.fetchTicksExecuted(), skipping.ticksExecuted());
    EXPECT_LE(skipping.memTicksExecuted(), skipping.ticksExecuted());
    expectKernelsPass(skipping);
    expectKernelsPass(ticking);
}

std::vector<std::uint8_t>
savedState(const Simulator &sim)
{
    StateWriter w;
    sim.saveState(w);
    return w.take();
}

TEST_P(IdleSkip, CheckpointMatchesSteppedMachineAtTheSameCycle)
{
    // A checkpoint window's payload is Simulator::saveState: a gated
    // machine stopped mid-run must write the bytes a machine that
    // ticked every cycle writes at the same cycle.
    const SimConfig &cfg = GetParam().cfg;
    const Program &program = benchmark().program;
    const std::uint64_t total = runSimulation(cfg, program).instructions;

    Simulator gated(cfg, program);
    Simulator stepped(cfg, program);
    for (std::uint64_t record : {total / 3, 2 * total / 3}) {
        gated.runUntil(record);
        while (stepped.pipeline().cursor() < record)
            stepped.step();
        ASSERT_LE(stepped.now(), gated.now());
        while (stepped.now() < gated.now())
            stepped.step();
        EXPECT_EQ(savedState(gated), savedState(stepped))
            << "at record " << record << ", cycle " << gated.now();
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, IdleSkip, ::testing::ValuesIn(matrix()),
    [](const ::testing::TestParamInfo<Case> &info) {
        return info.param.name;
    });

/**
 * Run @p cfg to its abort, once skipping and once with a probe
 * listener attached (which turns the skip off), and require the same
 * message at the same snapshot.
 */
void
expectSameAbort(const SimConfig &cfg)
{
    const Program &program = benchmark().program;
    const auto abortOf = [&](bool listen) {
        Simulator sim(cfg, program);
        if (listen)
            sim.probes().retire.connect([](const obs::RetireEvent &) {});
        try {
            sim.run();
        } catch (const SimAbort &e) {
            EXPECT_TRUE(e.hasSnapshot());
            return std::make_pair(std::string(e.what()),
                                  e.snapshot().toString());
        }
        ADD_FAILURE() << "expected SimAbort";
        return std::make_pair(std::string(), std::string());
    };
    const auto skipping = abortOf(false);
    const auto ticking = abortOf(true);
    EXPECT_EQ(skipping.first, ticking.first);
    EXPECT_EQ(skipping.second, ticking.second);
}

TEST(IdleSkipWatchdog, CycleLimitAbortsAtTheSameCycle)
{
    // Consecutive limits: some fall inside an idle stretch, which the
    // skip must stop short of.
    SimConfig cfg;
    cfg.mem.accessTime = 6;
    cfg.fetch = pipeConfigFor("16-16", 64);
    const SimResult full = runSimulation(cfg, benchmark().program);
    for (Cycle extra = 0; extra < 8; ++extra) {
        cfg.maxCycles = full.totalCycles / 2 + extra;
        expectSameAbort(cfg);
    }
}

TEST(IdleSkipWatchdog, ProgressWindowAbortsAtTheSameCycle)
{
    // Access time 6 leaves longer idle stretches than the window, so
    // the deadlock watchdog fires in the middle of one.
    SimConfig cfg;
    cfg.mem.accessTime = 6;
    cfg.fetch = conventionalConfigFor(64);
    cfg.progressWindow = 4;
    expectSameAbort(cfg);
}

TEST(IdleSkipWork, GatesMostFigureFiveFetchTicks)
{
    // Waiting on the bus, the fetch unit has nothing to do: its tick
    // runs on fewer than half the cycles, the memory system's on
    // fewer than the loop's.
    SimConfig cfg;
    cfg.mem.accessTime = 6;
    cfg.fetch = pipeConfigFor("16-16", 64);
    Simulator sim(cfg, benchmark().program);
    sim.run();
    EXPECT_LT(sim.fetchTicksExecuted(), sim.now() / 2);
    EXPECT_LT(sim.memTicksExecuted(), sim.ticksExecuted());
}

TEST(IdleSkipWork, SkipsAFifthOfFigureFiveCycles)
{
    // The work counter shows where the saving comes from: ticks not
    // executed.
    SimConfig cfg;
    cfg.mem.accessTime = 6;
    cfg.fetch = pipeConfigFor("16-16", 64);
    Simulator sim(cfg, benchmark().program);
    sim.run();
    EXPECT_LT(sim.ticksExecuted(), sim.now() * 4 / 5);
}

} // namespace
