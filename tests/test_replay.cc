/**
 * The trace-replay validation harness (docs/trace_replay.md): exact
 * replay must be bit-identical to the cycle simulator — same cycle
 * count, same instruction count, same value for every shared counter
 * — for every Livermore sweep point, and sampled replay must land
 * within its stated error bound.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/abort.hh"
#include "common/log.hh"
#include "obs/profiler.hh"
#include "replay/capture.hh"
#include "replay/replay_engine.hh"
#include "replay/trace_format.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "sim/standard_flags.hh"
#include "workloads/benchmark_program.hh"
#include "workloads/synthetic.hh"

using namespace pipesim;

namespace
{

const workloads::Benchmark &
tinyBenchmark()
{
    static const auto bench = workloads::buildLivermoreBenchmark(0.02);
    return bench;
}

const replay::Trace &
tinyTrace()
{
    static const replay::Trace trace = replay::captureTrace(
        SimConfig{}, tinyBenchmark().program, "test capture");
    return trace;
}

/** Assert cycle-simulated and replayed results are bit-identical. */
void
expectExactMatch(const SimConfig &cfg, const Program &program,
                 const replay::Trace &trace, const std::string &what)
{
    const SimResult cycle = runSimulation(cfg, program);
    const SimResult replayed = replay::replayTrace(cfg, program, trace);
    EXPECT_EQ(cycle.totalCycles, replayed.totalCycles) << what;
    EXPECT_EQ(cycle.instructions, replayed.instructions) << what;
    // Every counter the replay engine reports must exist in the cycle
    // run with the same value.
    for (const auto &[name, value] : replayed.counters) {
        ASSERT_TRUE(cycle.hasCounter(name)) << what << " counter " << name;
        EXPECT_EQ(cycle.counter(name), value)
            << what << " counter " << name;
    }
    // And the replay engine must not silently drop machine counters.
    for (const auto &[name, value] : cycle.counters) {
        EXPECT_TRUE(replayed.counters.count(name))
            << what << " missing counter " << name;
    }
}

} // namespace

TEST(ReplayExactTest, MatchesCycleSimulatorAcrossFullSweepGrid)
{
    const auto &bench = tinyBenchmark();
    const auto &trace = tinyTrace();
    SweepSpec spec;
    spec.strategies = {"conv", "8-8", "16-16", "16-32", "32-32", "tib"};
    for (const auto &strategy : spec.strategies) {
        for (unsigned size : spec.cacheSizes) {
            const auto cfg =
                makeValidSweepConfig(spec, strategy, size);
            if (!cfg)
                continue;
            expectExactMatch(*cfg, bench.program, trace,
                             strategy + ":" + std::to_string(size));
        }
    }
}

TEST(ReplayExactTest, MatchesUnderSlowAndPipelinedMemory)
{
    const auto &bench = tinyBenchmark();
    const auto &trace = tinyTrace();
    for (const bool pipelined : {false, true}) {
        SweepSpec spec;
        spec.mem.accessTime = 6;
        spec.mem.busWidthBytes = 8;
        spec.mem.pipelined = pipelined;
        for (const std::string strategy : {"conv", "16-16"}) {
            const auto cfg = makeValidSweepConfig(spec, strategy, 128);
            ASSERT_TRUE(cfg);
            expectExactMatch(*cfg, bench.program, trace,
                             strategy + (pipelined ? ":pipelined"
                                                   : ":unpipelined"));
        }
    }
}

TEST(ReplayExactTest, CaptureIsConfigIndependent)
{
    // The committed instruction stream is a property of the program
    // alone; captures under different machines must be identical.
    const auto &bench = tinyBenchmark();
    SimConfig conv;
    conv.fetch = conventionalConfigFor(64, 16);
    const replay::Trace a =
        replay::captureTrace(SimConfig{}, bench.program, "pipe");
    const replay::Trace b =
        replay::captureTrace(conv, bench.program, "conv");
    ASSERT_EQ(a.records.size(), b.records.size());
    EXPECT_EQ(a.records, b.records);
    EXPECT_EQ(a.meta.programSha256, b.meta.programSha256);
}

TEST(ReplayExactTest, SyntheticBranchyWorkloadMatches)
{
    workloads::BranchySpec bspec;
    bspec.blocks = 6;
    bspec.iterations = 40;
    const auto branchy = workloads::buildBranchyProgram(bspec);
    const replay::Trace trace = replay::captureTrace(
        SimConfig{}, branchy.program, "branchy");
    SweepSpec spec;
    for (const std::string strategy : {"conv", "16-16", "tib"}) {
        const auto cfg = makeValidSweepConfig(spec, strategy, 64);
        ASSERT_TRUE(cfg);
        expectExactMatch(*cfg, branchy.program, trace, strategy);
    }
}

TEST(ReplayExactTest, ResultMetaAttributesTheCapture)
{
    const auto &bench = tinyBenchmark();
    const auto &trace = tinyTrace();
    const SimResult r =
        replay::replayTrace(SimConfig{}, bench.program, trace);
    EXPECT_EQ(r.meta.at("engine"), "trace-exact");
    EXPECT_EQ(r.meta.at("trace_sha256"), trace.sha256);
    EXPECT_EQ(r.meta.at("program_sha256"), trace.meta.programSha256);
}

TEST(ReplayGuardTest, WrongProgramIsFatal)
{
    workloads::BranchySpec bspec;
    const auto branchy = workloads::buildBranchyProgram(bspec);
    EXPECT_THROW(replay::replayTrace(SimConfig{}, branchy.program,
                                     tinyTrace()),
                 FatalError);
}

TEST(ReplayGuardTest, AbortsCarryAMachineSnapshot)
{
    // Replay runs on the cycle engine's Simulator, so a watchdog
    // abort in an exact run or in a sampled window carries the same
    // forensic snapshot, naming the next trace record.
    SimConfig cfg;
    cfg.maxCycles = 500;
    replay::ReplayOptions sampled;
    sampled.samplePeriod = 2000;
    sampled.sampleWarmup = 1000;
    sampled.sampleMeasure = 1000;
    for (const replay::ReplayOptions &opt :
         {replay::ReplayOptions{}, sampled}) {
        try {
            replay::replayTrace(cfg, tinyBenchmark().program,
                                tinyTrace(), opt);
            FAIL() << "expected SimAbort";
        } catch (const SimAbort &e) {
            ASSERT_TRUE(e.hasSnapshot()) << e.what();
            EXPECT_EQ(e.snapshot().cycle, 501u);
            EXPECT_NE(e.snapshot().pipelineState.find(
                          "next trace record #"),
                      std::string::npos)
                << e.snapshot().pipelineState;
        }
    }
}

TEST(ReplaySampledTest, EstimateWithinBoundAndDeterministic)
{
    const auto &bench = tinyBenchmark();
    const auto &trace = tinyTrace();
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);
    const SimResult cycle = runSimulation(cfg, bench.program);

    replay::ReplayOptions opt;
    opt.samplePeriod = 2000;
    opt.sampleWarmup = 200;
    opt.sampleMeasure = 500;
    const SimResult a =
        replay::replayTrace(cfg, bench.program, trace, opt);
    const SimResult b =
        replay::replayTrace(cfg, bench.program, trace, opt);

    // Deterministic: the same options give the identical estimate.
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.counters, b.counters);
    EXPECT_EQ(a.instructions, cycle.instructions);
    EXPECT_EQ(a.meta.at("engine"), "trace-sampled");

    // Within 10% of the true cycle count for this well-behaved
    // workload (docs/trace_replay.md discusses the bound).
    const double rel =
        std::abs(double(a.totalCycles) - double(cycle.totalCycles)) /
        double(cycle.totalCycles);
    EXPECT_LT(rel, 0.10) << "estimate " << a.totalCycles << " vs "
                         << cycle.totalCycles;
}

TEST(ReplaySampledTest, RejectsImpossibleWindowing)
{
    replay::ReplayOptions opt;
    opt.samplePeriod = 100;
    opt.sampleWarmup = 80;
    opt.sampleMeasure = 80; // warmup + measure > period
    EXPECT_THROW(replay::replayTrace(SimConfig{},
                                     tinyBenchmark().program,
                                     tinyTrace(), opt),
                 FatalError);
}

TEST(ReplaySampledTest, NoWindowIsFatal)
{
    // A warm-up longer than the trace leaves no window to measure;
    // preparing the trace already says so.
    replay::ReplayOptions opt;
    opt.samplePeriod = 1000000;
    opt.sampleWarmup = 999000;
    opt.sampleMeasure = 1000;
    ASSERT_LT(tinyTrace().records.size(), opt.sampleWarmup);
    try {
        replay::replayTrace(SimConfig{}, tinyBenchmark().program,
                            tinyTrace(), opt);
        ADD_FAILURE() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find(
                      "sampling produced no measured instructions"),
                  std::string::npos)
            << e.what();
    }
}

TEST(ReplaySampledTest, PooledWindowsMatchSerial)
{
    const auto &bench = tinyBenchmark();
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);
    replay::ReplayOptions opt;
    opt.samplePeriod = 2000;
    opt.sampleWarmup = 200;
    opt.sampleMeasure = 500;
    const SimResult serial =
        replay::replayTrace(cfg, bench.program, tinyTrace(), opt);
    ASSERT_GT(std::stoul(serial.meta.at("sample_windows")), 1u);

    for (unsigned jobs : {1u, 2u, 8u}) {
        opt.jobs = jobs;
        const SimResult r =
            replay::replayTrace(cfg, bench.program, tinyTrace(), opt);
        const std::string what = "jobs " + std::to_string(jobs);
        EXPECT_EQ(r.totalCycles, serial.totalCycles) << what;
        EXPECT_EQ(r.instructions, serial.instructions) << what;
        EXPECT_EQ(r.counters, serial.counters) << what;
        for (const char *key :
             {"sample_windows", "cpi_estimate", "cpi_rel_ci95"})
            EXPECT_EQ(r.meta.at(key), serial.meta.at(key))
                << what << " " << key;
    }
}

TEST(ReplaySweepTest, TraceEngineSweepMatchesCycleSweep)
{
    const auto &bench = tinyBenchmark();
    const auto &trace = tinyTrace();

    SweepSpec cycleSpec;
    cycleSpec.cacheSizes = {32, 64, 128};
    cycleSpec.strategies = {"conv", "16-16", "tib"};
    const Table cycleTable =
        runCacheSweep(cycleSpec, bench.program).table;

    SweepSpec traceSpec = cycleSpec;
    traceSpec.engine = SweepEngine::Trace;
    traceSpec.trace = &trace;
    const Table traceTable =
        runCacheSweep(traceSpec, bench.program).table;
    EXPECT_EQ(cycleTable.toCsv(), traceTable.toCsv());

    // Deterministic and worker-count independent.
    traceSpec.jobs = 8;
    const Table parallelTable =
        runCacheSweep(traceSpec, bench.program).table;
    EXPECT_EQ(traceTable.toCsv(), parallelTable.toCsv());
}

TEST(ReplaySweepTest, TraceEngineWithoutTraceIsFatal)
{
    SweepSpec spec;
    spec.engine = SweepEngine::Trace;
    EXPECT_THROW(runCacheSweep(spec, tinyBenchmark().program),
                 FatalError);
}

namespace
{

/**
 * Run @p spec at jobs 1 and 8, collecting failures instead of
 * failing fast, and expect one FatalError naming @p needle from
 * runCacheSweep itself: no point may have run.
 */
void
expectSweepFatalBeforeAnyPoint(SweepSpec spec, const Program &program,
                               const std::string &needle)
{
    spec.failurePolicy = SweepFailurePolicy::CollectAndContinue;
    for (unsigned jobs : {1u, 8u}) {
        spec.jobs = jobs;
        unsigned points = 0;
        try {
            runCacheSweep(spec, program,
                          [&](const std::string &, unsigned,
                              const SimResult &) { ++points; });
            ADD_FAILURE() << "expected FatalError at jobs " << jobs;
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find(needle),
                      std::string::npos)
                << e.what();
        }
        EXPECT_EQ(points, 0u) << "jobs " << jobs;
    }
}

SweepSpec
traceSweepSpec(const replay::Trace &trace)
{
    SweepSpec spec;
    spec.cacheSizes = {32, 64, 128};
    spec.strategies = {"conv", "16-16", "tib"};
    spec.engine = SweepEngine::Trace;
    spec.trace = &trace;
    return spec;
}

/** Sampling that forms several windows over tinyTrace(). */
SweepSpec
sampledSweepSpec(const replay::Trace &trace)
{
    SweepSpec spec = traceSweepSpec(trace);
    spec.samplePeriod = 2000;
    spec.sampleWarmup = 200;
    spec.sampleMeasure = 500;
    return spec;
}

} // namespace

TEST(ReplaySweepTest, WrongProgramIsFatalBeforeAnyPoint)
{
    workloads::BranchySpec bspec;
    const auto branchy = workloads::buildBranchyProgram(bspec);
    expectSweepFatalBeforeAnyPoint(traceSweepSpec(tinyTrace()),
                                   branchy.program,
                                   "captured from a different program");
}

TEST(ReplaySweepTest, ImpossibleWindowingIsFatalBeforeAnyPoint)
{
    SweepSpec spec = sampledSweepSpec(tinyTrace());
    spec.samplePeriod = 100;
    spec.sampleWarmup = 80;
    spec.sampleMeasure = 80; // warmup + measure > period
    expectSweepFatalBeforeAnyPoint(spec, tinyBenchmark().program,
                                   "must cover warmup");
    spec.samplePeriod = 2000;
    spec.sampleMeasure = 0;
    expectSweepFatalBeforeAnyPoint(spec, tinyBenchmark().program,
                                   "sampleMeasure must be nonzero");
}

TEST(ReplaySweepTest, EmptyTraceIsFatalBeforeAnyPoint)
{
    replay::Trace empty;
    empty.meta.programSha256 =
        replay::programSha256(tinyBenchmark().program);
    expectSweepFatalBeforeAnyPoint(traceSweepSpec(empty),
                                   tinyBenchmark().program,
                                   "the trace holds no records");
}

TEST(ReplaySweepTest, NoWindowIsFatalBeforeAnyPoint)
{
    SweepSpec spec = sampledSweepSpec(tinyTrace());
    spec.samplePeriod = 1000000;
    spec.sampleWarmup = 999000; // longer than the trace
    spec.sampleMeasure = 1000;
    expectSweepFatalBeforeAnyPoint(
        spec, tinyBenchmark().program,
        "sampling produced no measured instructions");
}

TEST(ReplaySweepTest, SyncScanRunsOncePerSweep)
{
    struct ProfilerGuard
    {
        ~ProfilerGuard()
        {
            obs::Profiler::instance().disable();
            obs::Profiler::instance().reset();
        }
    } guard;
    const auto phaseCount = [](const std::string &name) {
        std::uint64_t count = 0;
        for (const auto &p : obs::Profiler::instance().snapshot()) {
            const auto slash = p.path.rfind('/');
            const std::string leaf = slash == std::string::npos
                                         ? p.path
                                         : p.path.substr(slash + 1);
            if (leaf == name)
                count += p.count;
        }
        return count;
    };

    for (unsigned jobs : {1u, 8u}) {
        obs::Profiler::instance().disable();
        obs::Profiler::instance().reset();
        obs::Profiler::instance().enable();
        SweepSpec spec = sampledSweepSpec(tinyTrace());
        spec.jobs = jobs;
        runCacheSweep(spec, tinyBenchmark().program);
        EXPECT_EQ(phaseCount("replay.sync_scan"), 1u) << "jobs " << jobs;
        EXPECT_EQ(phaseCount("replay.prepare"), 1u) << "jobs " << jobs;
        EXPECT_EQ(phaseCount("replay.sampled"), 9u) << "jobs " << jobs;
    }
}

TEST(ReplaySweepTest, SampledSweepMatchesStandaloneReplay)
{
    const auto &bench = tinyBenchmark();
    const auto &trace = tinyTrace();
    const SweepSpec base = sampledSweepSpec(trace);
    replay::ReplayOptions opt;
    opt.samplePeriod = base.samplePeriod;
    opt.sampleWarmup = base.sampleWarmup;
    opt.sampleMeasure = base.sampleMeasure;

    for (unsigned jobs : {1u, 8u}) {
        SweepSpec spec = base;
        spec.jobs = jobs;
        std::map<std::pair<std::string, unsigned>, SimResult> swept;
        runCacheSweep(spec, bench.program,
                      [&](const std::string &strategy, unsigned bytes,
                          const SimResult &r) {
                          swept[{strategy, bytes}] = r;
                      });
        ASSERT_EQ(swept.size(), 9u) << "jobs " << jobs;
        for (const auto &[key, r] : swept) {
            const std::string what = key.first + ":" +
                                     std::to_string(key.second) +
                                     " jobs " + std::to_string(jobs);
            const auto cfg =
                makeValidSweepConfig(spec, key.first, key.second);
            ASSERT_TRUE(cfg) << what;
            const SimResult alone =
                replay::replayTrace(*cfg, bench.program, trace, opt);
            EXPECT_EQ(r.totalCycles, alone.totalCycles) << what;
            EXPECT_EQ(r.instructions, alone.instructions) << what;
            EXPECT_EQ(r.counters, alone.counters) << what;
            EXPECT_EQ(r.meta, alone.meta) << what;
            EXPECT_EQ(r.meta.at("engine"), "trace-sampled") << what;
        }
    }
}

TEST(StandardFlagsTest, TraceEngineRejectsObsOutputs)
{
    StandardFlags flags;
    flags.engine = SweepEngine::Trace;
    flags.obs.cpiStack = true;
    SweepSpec spec;
    EXPECT_THROW(applyStandardFlags(spec, flags), FatalError);
}

TEST(StandardFlagsTest, PrepareSweepTraceRoundTripsThroughFile)
{
    const auto &bench = tinyBenchmark();
    const std::string path = "standard_flags_trace.pipetrc";
    std::remove(path.c_str());

    StandardFlags flags;
    flags.engine = SweepEngine::Trace;
    flags.traceFile = path;

    SweepSpec spec;
    auto captured = prepareSweepTrace(spec, flags, bench.program);
    ASSERT_TRUE(captured);
    EXPECT_EQ(spec.trace, captured.get());

    // Second call loads the saved file and yields the same trace.
    SweepSpec spec2;
    auto loaded = prepareSweepTrace(spec2, flags, bench.program);
    ASSERT_TRUE(loaded);
    EXPECT_EQ(captured->sha256, loaded->sha256);
    EXPECT_EQ(captured->records, loaded->records);
    std::remove(path.c_str());
}

TEST(StandardFlagsTest, CliRoundTrip)
{
    CliParser cli("test");
    registerStandardFlags(cli);
    const char *argv[] = {"tool",           "--engine", "trace",
                          "--sample-period", "5000",    "--jobs",
                          "2"};
    ASSERT_TRUE(cli.parse(7, argv));
    const StandardFlags f = standardFlagsFromCli(cli);
    EXPECT_EQ(f.engine, SweepEngine::Trace);
    EXPECT_EQ(f.samplePeriod, 5000u);
    EXPECT_EQ(f.jobs, 2u);

    // Sweep points are deterministic, so there is no retry option;
    // nor is there fault injection, a result store or a wall-clock
    // point deadline.
    for (const char *removed :
         {"--point-retries", "--fi-kind", "--fi-seed", "--fi-rate",
          "--fi-point", "--store-dir", "--point-deadline-ms"}) {
        CliParser gone("test");
        registerStandardFlags(gone);
        const char *goneArgv[] = {"tool", removed, "1"};
        EXPECT_THROW(gone.parse(3, goneArgv), FatalError) << removed;
    }
}

TEST(StandardFlagsTest, CheckpointFlagsAreGone)
{
    // Sampled windows always warm up cold: there is no checkpoint
    // store to name or create.
    {
        CliParser cli("test");
        registerStandardFlags(cli);
        const char *argv[] = {"tool", "--ckpt-dir", "x"};
        EXPECT_THROW(cli.parse(3, argv), FatalError);
    }
    {
        CliParser cli("test");
        registerStandardFlags(cli);
        const char *argv[] = {"tool", "--ckpt-create"};
        EXPECT_THROW(cli.parse(2, argv), FatalError);
    }
}

TEST(StandardFlagsTest, BadEngineNameIsFatal)
{
    CliParser cli("test");
    registerStandardFlags(cli);
    const char *argv[] = {"tool", "--engine", "warp"};
    ASSERT_TRUE(cli.parse(3, argv));
    EXPECT_THROW(standardFlagsFromCli(cli), FatalError);
}
