/**
 * Machine-state snapshots (Simulator::saveState/restoreState) and the
 * plan/execute sampled-replay split:
 *
 *  - window planning must deduplicate sparse-sync-point collisions
 *    (the double-measured-window bug) while preserving the tail
 *    clamping semantics;
 *  - machine state must round-trip bit-exactly through
 *    saveState/restoreState at every sync point — the restored
 *    machine's future is indistinguishable from the original's;
 *  - a sampled estimate from one window reports no confidence
 *    interval;
 *  - a truncated payload must fail restoreState with a FatalError;
 *  - the cycle engine's executing machine checkpoints too: restored
 *    mid-run, it finishes with the same result and kernel outputs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/log.hh"
#include "common/state_io.hh"
#include "mem/data_memory.hh"
#include "replay/capture.hh"
#include "replay/replay_engine.hh"
#include "replay/trace_format.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workloads/benchmark_program.hh"
#include "workloads/reference.hh"

using namespace pipesim;
using namespace pipesim::replay;

namespace
{

const workloads::Benchmark &
tinyBenchmark()
{
    static const auto bench = workloads::buildLivermoreBenchmark(0.02);
    return bench;
}

const Trace &
tinyTrace()
{
    static const Trace trace = captureTrace(
        SimConfig{}, tinyBenchmark().program, "checkpoint test");
    return trace;
}

ReplayOptions
sampledOptions()
{
    ReplayOptions opt;
    opt.samplePeriod = 2000;
    opt.sampleWarmup = 200;
    opt.sampleMeasure = 500;
    return opt;
}

/** Counters, cycle clock and cursor of @p m as one comparable blob. */
std::vector<std::pair<std::string, std::uint64_t>>
machineFingerprint(Simulator &m)
{
    std::vector<std::pair<std::string, std::uint64_t>> fp;
    fp.emplace_back("~now", m.now());
    fp.emplace_back("~cursor", m.pipeline().cursor());
    fp.emplace_back("~retired", m.pipeline().instructionsRetired());
    for (const auto &name : m.stats().counterNames())
        fp.emplace_back(name, m.stats().counterValue(name));
    return fp;
}

} // namespace

// ---------------------------------------------------------------------
// Window planning (satellite: the double-measured-window fix).

TEST(SampleWindowPlanTest, SparseSyncPointsDoNotDuplicateWindows)
{
    // Sync points {0, 50000} with period 20000: targets 20000 and
    // 40000 both round up to the sync point at 50000.  The old loop
    // measured that window twice, double-weighting it in the CPI
    // estimator and double-counting its deltas.
    ReplayOptions opt;
    opt.samplePeriod = 20000;
    opt.sampleWarmup = 300;
    opt.sampleMeasure = 700;
    const std::vector<std::size_t> sync = {0, 50000};
    const auto plan = planSampleWindows(80000, sync, opt);
    ASSERT_EQ(plan.size(), 2u);
    EXPECT_EQ(plan[0], (SampleWindow{0, 300, 1000}));
    EXPECT_EQ(plan[1], (SampleWindow{50000, 50300, 51000}));
}

TEST(SampleWindowPlanTest, StartsAreStrictlyIncreasing)
{
    const auto &trace = tinyTrace();
    const auto sync =
        computeSyncPoints(tinyBenchmark().program, trace);
    for (unsigned period : {1000u, 2000u, 5000u}) {
        ReplayOptions opt;
        opt.samplePeriod = period;
        opt.sampleWarmup = 200;
        opt.sampleMeasure = 500;
        const auto plan =
            planSampleWindows(trace.records.size(), sync, opt);
        ASSERT_FALSE(plan.empty());
        for (std::size_t i = 1; i < plan.size(); ++i)
            EXPECT_LT(plan[i - 1].start, plan[i].start)
                << "period " << period << " window " << i;
    }
}

TEST(SampleWindowPlanTest, TailWindowsClampAndEmptyTailStops)
{
    ReplayOptions opt;
    opt.samplePeriod = 400;
    opt.sampleWarmup = 300;
    opt.sampleMeasure = 100;
    // A window whose warm-up swallows the whole tail measures
    // nothing and ends the plan.
    const std::vector<std::size_t> sync = {0, 999};
    const auto plan = planSampleWindows(1000, sync, opt);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0], (SampleWindow{0, 300, 400}));
}

TEST(SampleWindowPlanTest, SingleWindowWhenPeriodExceedsTrace)
{
    ReplayOptions opt;
    opt.samplePeriod = 1000000;
    opt.sampleWarmup = 200;
    opt.sampleMeasure = 500;
    const std::vector<std::size_t> sync = {0, 10, 400};
    const auto plan = planSampleWindows(5000, sync, opt);
    ASSERT_EQ(plan.size(), 1u);
    EXPECT_EQ(plan[0], (SampleWindow{0, 200, 700}));
}

// ---------------------------------------------------------------------
// Machine-state round-trip property.

namespace
{

/**
 * Save a warm machine at a sync point, restore it into a fresh one,
 * run both the same distance, and require bit-identical clocks,
 * cursors and counters.
 */
void
expectRoundTripAt(const SimConfig &cfg, std::size_t syncPoint,
                  const std::string &what)
{
    const auto &program = tinyBenchmark().program;
    const auto &trace = tinyTrace();
    const std::size_t total = trace.records.size();
    const std::size_t warmTo =
        std::min<std::size_t>(syncPoint + 150, total);
    const std::size_t runTo = std::min<std::size_t>(warmTo + 300, total);

    DataMemory memA;
    memA.loadProgram(program);
    Simulator a(cfg, program, memA, &trace, syncPoint);
    a.fetchUnit().reset(trace.records[syncPoint].pc);
    while (a.pipeline().cursor() < warmTo && !a.done())
        a.step();

    StateWriter w;
    a.saveState(w);
    memA.saveDirtyPages(w);
    const std::vector<std::uint8_t> payload = w.take();

    DataMemory memB;
    memB.loadProgram(program);
    Simulator b(cfg, program, memB, &trace, syncPoint);
    StateReader r(payload, what);
    b.restoreState(r);
    memB.restoreDirtyPages(r);
    r.expectEnd();

    // Identical immediately after restore...
    EXPECT_EQ(machineFingerprint(a), machineFingerprint(b)) << what;

    // ...and still identical after running the same span, so every
    // piece of in-flight state (fill requests, queue contents, FPU
    // pipelines, latches) must have survived the round-trip.
    while (a.pipeline().cursor() < runTo && !a.done())
        a.step();
    while (b.pipeline().cursor() < runTo && !b.done())
        b.step();
    EXPECT_EQ(machineFingerprint(a), machineFingerprint(b)) << what;
}

} // namespace

TEST(CheckpointRoundTripTest, EverySyncPointEveryStrategy)
{
    const auto &program = tinyBenchmark().program;
    const auto &trace = tinyTrace();
    const auto sync = computeSyncPoints(program, trace);
    ASSERT_GT(sync.size(), 4u);

    std::vector<SimConfig> configs(3);
    configs[0].fetch = pipeConfigFor("16-16", 128);
    configs[1].fetch = conventionalConfigFor(128, 16);
    configs[2].fetch = tibConfigFor(128);

    // Sub-sample the sync points so the property stays cheap while
    // still covering start, middle and tail of the trace.
    const std::size_t step = std::max<std::size_t>(1, sync.size() / 12);
    for (const SimConfig &cfg : configs) {
        for (std::size_t i = 0; i < sync.size(); i += step) {
            expectRoundTripAt(cfg, sync[i],
                              cfg.fetchName() + " @ sync " +
                                  std::to_string(sync[i]));
        }
    }
}

TEST(CheckpointRoundTripTest, SlowPipelinedMemoryAndDcache)
{
    const auto &program = tinyBenchmark().program;
    const auto &trace = tinyTrace();
    const auto sync = computeSyncPoints(program, trace);
    ASSERT_GT(sync.size(), 2u);

    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);
    cfg.mem.accessTime = 6;
    cfg.mem.busWidthBytes = 8;
    cfg.mem.pipelined = true;
    cfg.mem.dcacheBytes = 256;
    const std::size_t mid = sync[sync.size() / 2];
    expectRoundTripAt(cfg, mid, "slow pipelined memory with dcache");
}

// ---------------------------------------------------------------------
// Sampled estimates and bad payloads.

TEST(CheckpointedReplayTest, SingleWindowCiIsNotApplicable)
{
    // One measured window has no CPI spread: the confidence interval
    // must render as "n/a", not a fake 0.
    const auto &program = tinyBenchmark().program;
    const auto &trace = tinyTrace();
    ReplayOptions opt;
    opt.samplePeriod = 1000000; // one window at the first sync point
    opt.sampleWarmup = 200;
    opt.sampleMeasure = 500;
    const SimResult r = replayTrace(SimConfig{}, program, trace, opt);
    EXPECT_EQ(r.meta.at("sample_windows"), "1");
    EXPECT_EQ(r.meta.at("cpi_rel_ci95"), "n/a");

    // Multi-window runs still report a numeric interval.
    const SimResult many =
        replayTrace(SimConfig{}, program, trace, sampledOptions());
    EXPECT_GT(std::stoul(many.meta.at("sample_windows")), 1u);
    EXPECT_NO_THROW(std::stod(many.meta.at("cpi_rel_ci95")));
}

TEST(CheckpointCorruptionTest, CorruptPayloadFailsRestoreCleanly)
{
    // A payload that passes the container CRCs but holds impossible
    // component state (here: a corrupted byte re-checksummed) must
    // surface as FatalError from the state decoder, not UB.
    const auto &program = tinyBenchmark().program;
    const auto &trace = tinyTrace();
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);

    DataMemory mem;
    mem.loadProgram(program);
    const auto sync = computeSyncPoints(program, trace);
    Simulator m(cfg, program, mem, &trace, sync[0]);
    m.fetchUnit().reset(trace.records[sync[0]].pc);
    for (int i = 0; i < 200 && !m.done(); ++i)
        m.step();
    StateWriter w;
    m.saveState(w);
    std::vector<std::uint8_t> payload = w.take();

    // Truncation must never decode.
    for (const std::size_t len :
         {std::size_t(0), payload.size() / 3, payload.size() - 1}) {
        std::vector<std::uint8_t> cut(payload.begin(),
                                      payload.begin() + len);
        DataMemory mem2;
        mem2.loadProgram(program);
        Simulator fresh(cfg, program, mem2, &trace, sync[0]);
        StateReader r(cut, "truncated payload");
        EXPECT_THROW(fresh.restoreState(r), FatalError)
            << "payload truncated to " << len;
    }
}

// ---------------------------------------------------------------------
// Cycle-engine checkpoints: the executing machine is the same
// Simulator, so it saves and restores mid-run as well.

TEST(CycleCheckpointTest, MidRunRestoreFinishesIdentically)
{
    const auto bench = workloads::buildLivermoreBenchmark(0.03);
    const Program &program = bench.program;

    std::vector<SimConfig> configs(3);
    configs[0].fetch = conventionalConfigFor(128, 16);
    configs[1].fetch = pipeConfigFor("16-16", 128);
    configs[2].fetch = tibConfigFor(128);

    for (const SimConfig &cfg : configs) {
        const SimResult cold = runSimulation(cfg, program);
        for (const Cycle saveAt :
             {Cycle(1), cold.totalCycles / 4, cold.totalCycles / 2,
              cold.totalCycles - 3}) {
            const std::string what =
                cfg.fetchName() + " @ cycle " + std::to_string(saveAt);
            Simulator a(cfg, program);
            while (a.now() < saveAt && !a.done())
                a.step();
            StateWriter w;
            a.saveState(w);
            a.dataMemory().saveDirtyPages(w);
            const std::vector<std::uint8_t> payload = w.take();

            Simulator b(cfg, program);
            StateReader r(payload, what);
            b.restoreState(r);
            b.dataMemory().restoreDirtyPages(r);
            r.expectEnd();

            const SimResult ra = a.run();
            const SimResult rb = b.run();
            EXPECT_EQ(ra.totalCycles, rb.totalCycles) << what;
            EXPECT_EQ(ra.instructions, rb.instructions) << what;
            EXPECT_EQ(ra.counters, rb.counters) << what;
            EXPECT_EQ(rb.totalCycles, cold.totalCycles) << what;
            EXPECT_EQ(rb.counters, cold.counters) << what;
            for (std::size_t k = 0; k < bench.kernels.size(); ++k) {
                std::string diag;
                EXPECT_TRUE(workloads::verifyAgainstReference(
                    b.dataMemory(), bench.kernels[k], bench.codeInfo[k],
                    &diag))
                    << what << " kernel " << k + 1 << ": " << diag;
            }
        }
    }
}

TEST(CycleCheckpointTest, RestoredRunDumpsTheSameStatistics)
{
    // The queue-occupancy histograms (open runs included) are part of
    // the saved state, so a run restored mid-way reports every
    // statistic of the uninterrupted run, not only its counters.
    const auto bench = workloads::buildLivermoreBenchmark(0.03);
    const Program &program = bench.program;

    std::vector<SimConfig> configs(3);
    configs[0].fetch = conventionalConfigFor(128, 16);
    configs[1].fetch = pipeConfigFor("16-16", 128);
    configs[2].fetch = tibConfigFor(128);

    for (const SimConfig &cfg : configs) {
        Simulator cold(cfg, program);
        cold.run();
        const std::string want = cold.stats().dump();
        for (const char *q : {"laq", "ldq", "saq", "sdq"})
            ASSERT_NE(want.find(std::string("cpu.queues.") + q +
                                "_occupancy"),
                      std::string::npos);

        Simulator a(cfg, program);
        while (a.now() < cold.now() / 2)
            a.step();
        StateWriter w;
        a.saveState(w);
        a.dataMemory().saveDirtyPages(w);
        const std::vector<std::uint8_t> payload = w.take();

        Simulator b(cfg, program);
        StateReader r(payload, cfg.fetchName());
        b.restoreState(r);
        b.dataMemory().restoreDirtyPages(r);
        r.expectEnd();
        b.run();
        EXPECT_EQ(b.stats().dump(), want) << cfg.fetchName();
    }
}
