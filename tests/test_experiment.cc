#include <gtest/gtest.h>

#include <csignal>
#include <map>
#include <set>
#include <utility>

#include "common/abort.hh"
#include "common/log.hh"

#include "obs/metrics.hh"
#include "obs/profiler.hh"
#include "sim/experiment.hh"
#include "sim/guard.hh"
#include "workloads/benchmark_program.hh"

using namespace pipesim;

namespace
{

const workloads::Benchmark &
tinyBenchmark()
{
    static const auto bench = workloads::buildLivermoreBenchmark(0.02);
    return bench;
}

/**
 * The grid the error-isolation tests wedge one point of.  Its slowest
 * point (conv at 32 bytes) is unique: at 16 bytes conv would tie it.
 */
SweepSpec
isolationGrid()
{
    SweepSpec spec;
    spec.cacheSizes = {32, 64};
    spec.strategies = {"conv", "8-8"};
    return spec;
}

/** A cycle cap that only one point of a sweep exceeds, and its cell. */
struct RunawayCap
{
    Cycle maxCycles = 0;
    std::size_t row = 0; //!< table row of the capped point
    std::size_t col = 0; //!< table column (1 = first strategy)
};

/**
 * Run @p spec uncapped and place SweepSpec::maxCycles halfway between
 * its slowest point's cycle count and the next one, so exactly the
 * slowest point aborts with "simulation exceeded N cycles".
 */
RunawayCap
capBelowSlowestPoint(const SweepSpec &spec)
{
    const Table t = runCacheSweep(spec, tinyBenchmark().program).table;
    RunawayCap cap;
    Cycle slowest = 0, next = 0;
    for (std::size_t row = 0; row < t.numRows(); ++row) {
        for (std::size_t col = 1; col < t.numCols(); ++col) {
            const Cycle c = std::stoull(t.at(row, col));
            if (c > slowest) {
                next = slowest;
                slowest = c;
                cap.row = row;
                cap.col = col;
            } else {
                next = std::max(next, c);
            }
        }
    }
    // A point keeps ticking a few cycles past its halt while the
    // queues drain; the gap must leave the runner-up well clear.
    EXPECT_GT(slowest - next, 100u) << "the slowest point is not unique";
    cap.maxCycles = next + (slowest - next) / 2;
    return cap;
}

} // namespace

TEST(ExperimentTest, SweepTableShape)
{
    SweepSpec spec;
    spec.cacheSizes = {32, 64};
    spec.strategies = {"conv", "16-16"};
    const Table t = runCacheSweep(spec, tinyBenchmark().program).table;
    EXPECT_EQ(t.numCols(), 3u);
    EXPECT_EQ(t.numRows(), 2u);
    EXPECT_EQ(t.at(0, 0), "32");
    EXPECT_EQ(t.at(1, 0), "64");
    // Cycle counts are positive integers.
    EXPECT_GT(std::stoull(t.at(0, 1)), 0u);
    EXPECT_GT(std::stoull(t.at(0, 2)), 0u);
}

TEST(ExperimentTest, InvalidPointsRenderDash)
{
    SweepSpec spec;
    spec.cacheSizes = {16};
    spec.strategies = {"32-32"}; // 32-byte line cannot fit 16-byte cache
    const Table t = runCacheSweep(spec, tinyBenchmark().program).table;
    EXPECT_EQ(t.at(0, 1), "-");
}

TEST(ExperimentTest, PointValidity)
{
    SweepSpec spec;
    EXPECT_TRUE(sweepPointValid(spec, "conv", 16));
    EXPECT_TRUE(sweepPointValid(spec, "8-8", 16));
    EXPECT_FALSE(sweepPointValid(spec, "16-16", 8));
    EXPECT_FALSE(sweepPointValid(spec, "32-32", 16));
    EXPECT_TRUE(sweepPointValid(spec, "32-32", 32));
}

TEST(ExperimentTest, ConvSmallerThanLineIsInvalid)
{
    // Regression: "conv" used to be unconditionally valid, so a
    // conventional cache smaller than one line (e.g. a 32-byte line
    // in a 16-byte cache) built a degenerate config instead of
    // rendering "-" like the PIPE strategies do.
    SweepSpec spec;
    spec.convLineBytes = 32;
    EXPECT_FALSE(sweepPointValid(spec, "conv", 16));
    EXPECT_TRUE(sweepPointValid(spec, "conv", 32));
    EXPECT_FALSE(makeValidSweepConfig(spec, "conv", 16).has_value());

    spec.cacheSizes = {16, 32};
    spec.strategies = {"conv"};
    const Table t = runCacheSweep(spec, tinyBenchmark().program).table;
    EXPECT_EQ(t.at(0, 1), "-");
    EXPECT_NE(t.at(1, 1), "-");
}

TEST(ExperimentTest, MakeValidSweepConfigMatchesMakeSweepConfig)
{
    SweepSpec spec;
    spec.mem.accessTime = 6;
    spec.policy = OffchipPolicy::GuaranteedOnly;
    // The planner builds each point through makeValidSweepConfig; the
    // planned config must match a direct call.
    spec.cacheSizes = {64};
    spec.strategies = {"16-16"};
    const auto plans = planSweepPoints(spec);
    ASSERT_EQ(plans.size(), 1u);
    const SimConfig &planned = plans[0].cfg;
    const SimConfig direct = *makeValidSweepConfig(spec, "16-16", 64);
    EXPECT_EQ(planned.fetch.strategy, direct.fetch.strategy);
    EXPECT_EQ(planned.fetch.cacheBytes, direct.fetch.cacheBytes);
    EXPECT_EQ(planned.fetch.lineBytes, direct.fetch.lineBytes);
    EXPECT_EQ(planned.fetch.offchipPolicy, direct.fetch.offchipPolicy);
    EXPECT_EQ(planned.mem.accessTime, direct.mem.accessTime);
}

TEST(ExperimentTest, ParallelSweepIsDeterministic)
{
    // --jobs 1 and --jobs 8 must produce byte-identical tables and
    // identical per-point counters: per-run state is thread-local and
    // the table is assembled in (size, strategy) order.
    SweepSpec spec;
    spec.cacheSizes = {16, 32, 64, 128};
    spec.strategies = {"conv", "8-8", "16-16", "32-32"};
    spec.mem.accessTime = 2;

    using PointKey = std::pair<std::string, unsigned>;
    using CounterMap = std::map<PointKey,
                                std::map<std::string, std::uint64_t>>;
    auto runWith = [&](unsigned jobs, CounterMap &counters) {
        spec.jobs = jobs;
        return runCacheSweep(spec, tinyBenchmark().program,
                             [&counters](const std::string &strategy,
                                         unsigned cache,
                                         const SimResult &r) {
                                 counters[{strategy, cache}] = r.counters;
                             });
    };
    CounterMap serial_counters, parallel_counters;
    const Table serial = runWith(1, serial_counters).table;
    const Table parallel = runWith(8, parallel_counters).table;

    EXPECT_EQ(serial.toText(), parallel.toText());
    EXPECT_EQ(serial.toCsv(), parallel.toCsv());
    EXPECT_EQ(serial_counters.size(), parallel_counters.size());
    EXPECT_EQ(serial_counters, parallel_counters);
}

TEST(ExperimentTest, ParallelCallbacksAreSerialized)
{
    // preRun/postRun/on_point mutate this unguarded state; the
    // documented contract (all callbacks under one mutex) makes that
    // legal, and postRun/on_point for one point are consecutive.
    SweepSpec spec;
    spec.cacheSizes = {32, 64, 128, 256};
    spec.strategies = {"conv", "8-8", "16-16"};
    spec.jobs = 8;
    int depth = 0;
    int pre = 0, post = 0, observed = 0;
    std::string last_post;
    spec.preRun = [&](Simulator &, const std::string &, unsigned) {
        EXPECT_EQ(++depth, 1);
        ++pre;
        --depth;
    };
    spec.postRun = [&](Simulator &, const std::string &strategy,
                       unsigned cache, const SimResult &) {
        EXPECT_EQ(++depth, 1);
        ++post;
        last_post = strategy + ":" + std::to_string(cache);
        --depth;
    };
    runCacheSweep(spec, tinyBenchmark().program,
                  [&](const std::string &strategy, unsigned cache,
                      const SimResult &) {
                      EXPECT_EQ(++depth, 1);
                      ++observed;
                      // on_point follows this point's postRun.
                      EXPECT_EQ(last_post,
                                strategy + ":" + std::to_string(cache));
                      --depth;
                  });
    EXPECT_EQ(pre, 12);
    EXPECT_EQ(post, 12);
    EXPECT_EQ(observed, 12);
}

TEST(ExperimentTest, OnSweepEndRunsOnceAfterAllPoints)
{
    for (unsigned jobs : {1u, 4u}) {
        SweepSpec spec;
        spec.cacheSizes = {32, 64};
        spec.strategies = {"conv", "16-16"};
        spec.jobs = jobs;
        int points = 0;
        int end_calls = 0;
        spec.onSweepEnd = [&] {
            ++end_calls;
            EXPECT_EQ(points, 4);
        };
        runCacheSweep(spec, tinyBenchmark().program,
                      [&](const std::string &, unsigned,
                          const SimResult &) { ++points; });
        EXPECT_EQ(end_calls, 1);
    }
}

TEST(ExperimentTest, WorkerExceptionPropagates)
{
    // A failing point must not be swallowed by the pool: the
    // exception is rethrown to the caller after all workers finish.
    for (unsigned jobs : {1u, 4u}) {
        SweepSpec spec;
        spec.cacheSizes = {16, 32, 64};
        spec.strategies = {"conv", "8-8"};
        spec.jobs = jobs;
        spec.postRun = [](Simulator &, const std::string &strategy,
                          unsigned cache, const SimResult &) {
            if (strategy == "8-8" && cache == 32)
                fatal("injected failure at 8-8:32");
        };
        try {
            runCacheSweep(spec, tinyBenchmark().program);
            FAIL() << "expected FatalError (jobs=" << jobs << ")";
        } catch (const FatalError &e) {
            EXPECT_NE(std::string(e.what()).find("injected failure"),
                      std::string::npos);
        }
    }
}

TEST(ExperimentTest, MakeSweepConfigAppliesParameters)
{
    SweepSpec spec;
    spec.mem.accessTime = 6;
    spec.mem.busWidthBytes = 8;
    spec.mem.pipelined = true;
    spec.policy = OffchipPolicy::GuaranteedOnly;
    const SimConfig pipe = *makeValidSweepConfig(spec, "16-16", 64);
    EXPECT_EQ(pipe.mem.accessTime, 6u);
    EXPECT_EQ(pipe.mem.busWidthBytes, 8u);
    EXPECT_TRUE(pipe.mem.pipelined);
    EXPECT_EQ(pipe.fetch.strategy, FetchStrategy::Pipe);
    EXPECT_EQ(pipe.fetch.offchipPolicy, OffchipPolicy::GuaranteedOnly);
    EXPECT_EQ(pipe.fetch.cacheBytes, 64u);

    const SimConfig conv = *makeValidSweepConfig(spec, "conv", 64);
    EXPECT_EQ(conv.fetch.strategy, FetchStrategy::Conventional);
}

TEST(ExperimentTest, ObserverSeesEveryValidPoint)
{
    SweepSpec spec;
    spec.cacheSizes = {16, 32};
    spec.strategies = {"conv", "32-32"};
    unsigned points = 0;
    runCacheSweep(spec, tinyBenchmark().program,
                  [&](const std::string &, unsigned, const SimResult &r) {
                      ++points;
                      EXPECT_GT(r.totalCycles, 0u);
                  });
    EXPECT_EQ(points, 3u); // 32-32 at 16 bytes is skipped
}

TEST(ExperimentTest, TimingsFollowEnumerationOrder)
{
    SweepSpec spec;
    spec.cacheSizes = {16, 32};
    spec.strategies = {"conv", "32-32"};
    const SweepResult r = runCacheSweep(spec, tinyBenchmark().program);
    // One timing per valid point, in enumeration order (size-major,
    // matching the table's row-then-column walk).
    ASSERT_EQ(r.timings.size(), 3u); // 32-32 at 16 bytes is skipped
    EXPECT_EQ(r.timings[0].strategy, "conv");
    EXPECT_EQ(r.timings[0].cacheBytes, 16u);
    EXPECT_EQ(r.timings[1].strategy, "conv");
    EXPECT_EQ(r.timings[1].cacheBytes, 32u);
    EXPECT_EQ(r.timings[2].strategy, "32-32");
    EXPECT_EQ(r.timings[2].cacheBytes, 32u);
    for (const auto &t : r.timings)
        EXPECT_GT(t.wallNs, 0u);
}

TEST(ExperimentTest, ObservabilityPreservesDeterminism)
{
    // The full telemetry surface on (--progress, profiler enabled)
    // must not perturb results: tables stay byte-identical between
    // --jobs 1 and --jobs 8, the profiler records the same phase
    // paths (Scope::Root detaches sweep points from the worker
    // context), and the metrics key set is identical even though
    // --jobs 1 never constructs a thread pool (key-set contract).
    struct ProfilerGuard
    {
        ~ProfilerGuard()
        {
            obs::Profiler::instance().disable();
            obs::Profiler::instance().reset();
        }
    } guard;
    obs::Profiler::instance().disable();
    obs::Profiler::instance().reset();
    obs::Profiler::instance().enable();

    SweepSpec spec;
    spec.cacheSizes = {16, 32, 64};
    spec.strategies = {"conv", "8-8", "16-16"};
    spec.progress = true;

    auto phasePaths = [] {
        std::set<std::string> paths;
        for (const auto &p : obs::Profiler::instance().snapshot())
            paths.insert(p.path);
        return paths;
    };
    auto metricKeys = [] {
        std::set<std::string> keys;
        for (const auto &e : obs::MetricsRegistry::instance().entries())
            keys.insert(e.name);
        return keys;
    };
    using TimingKey = std::pair<std::string, unsigned>;
    auto timingKeys = [](const SweepResult &r) {
        std::vector<TimingKey> keys;
        for (const auto &t : r.timings)
            keys.emplace_back(t.strategy, t.cacheBytes);
        return keys;
    };

    spec.jobs = 1;
    const SweepResult serial =
        runCacheSweep(spec, tinyBenchmark().program);
    const auto serialPaths = phasePaths();
    const auto serialKeys = metricKeys();
    // --jobs 1 runs inline, yet the pool metrics must already exist.
    EXPECT_TRUE(serialKeys.count("pool.tasks"));
    EXPECT_TRUE(serialKeys.count("pool.workers"));
    EXPECT_TRUE(serialKeys.count("sweep.point_ns"));
    EXPECT_TRUE(serialPaths.count("sweep/run_points"));
    EXPECT_TRUE(serialPaths.count("point/sim.run"));

    obs::Profiler::instance().reset();
    obs::Profiler::instance().enable();
    spec.jobs = 8;
    const SweepResult parallel =
        runCacheSweep(spec, tinyBenchmark().program);

    EXPECT_EQ(serial.table.toText(), parallel.table.toText());
    EXPECT_EQ(serial.table.toCsv(), parallel.table.toCsv());
    EXPECT_EQ(timingKeys(serial), timingKeys(parallel));
    EXPECT_EQ(serialPaths, phasePaths());
    EXPECT_EQ(serialKeys, metricKeys());
}

TEST(ExperimentTest, BiggerCacheNeverMuchWorse)
{
    // Sanity on the sweep trend: the largest cache should beat the
    // smallest for both strategy families on this workload.
    SweepSpec spec;
    spec.cacheSizes = {16, 512};
    spec.strategies = {"conv", "8-8"};
    spec.mem.accessTime = 6;
    const Table t = runCacheSweep(spec, tinyBenchmark().program).table;
    EXPECT_GT(std::stoull(t.at(0, 1)), std::stoull(t.at(1, 1)));
    EXPECT_GT(std::stoull(t.at(0, 2)), std::stoull(t.at(1, 2)));
}

TEST(ExperimentFaultIsolation, CollectAndContinueRendersErrCellOnly)
{
    // One failing point must not take the sweep down: its cell reads
    // ERR, every other cell keeps its value, and the structured
    // failure record comes back in SweepResult::failures.
    SweepSpec spec;
    spec.cacheSizes = {16, 32, 64};
    spec.strategies = {"conv", "8-8"};
    spec.failurePolicy = SweepFailurePolicy::CollectAndContinue;
    spec.postRun = [](Simulator &, const std::string &strategy,
                      unsigned cache, const SimResult &) {
        if (strategy == "8-8" && cache == 32)
            fatal("injected failure at 8-8:32");
    };
    const SweepResult r = runCacheSweep(spec, tinyBenchmark().program);
    EXPECT_FALSE(r.ok());
    ASSERT_EQ(r.failures.size(), 1u);
    EXPECT_EQ(r.failures[0].strategy, "8-8");
    EXPECT_EQ(r.failures[0].cacheBytes, 32u);
    EXPECT_NE(r.failures[0].message.find("injected failure"),
              std::string::npos);
    EXPECT_EQ(r.table.at(1, 2), "ERR");
    // Every other cell still carries a cycle count.
    EXPECT_GT(std::stoull(r.table.at(0, 2)), 0u);
    EXPECT_GT(std::stoull(r.table.at(2, 2)), 0u);
    for (std::size_t row = 0; row < 3; ++row)
        EXPECT_GT(std::stoull(r.table.at(row, 1)), 0u);
    EXPECT_NE(r.failureReport().find("8-8:32"), std::string::npos);
}

TEST(ExperimentFaultIsolation, DeadlockedFaultPointReportsSnapshot)
{
    // A cycle cap that only the slowest point exceeds wedges exactly
    // that point; the sweep still completes, that cell renders ERR,
    // the failure carries the machine snapshot, and the whole report
    // is byte-identical for any worker count.
    SweepSpec spec = isolationGrid();
    const RunawayCap cap = capBelowSlowestPoint(spec);
    auto sweep = [&](unsigned jobs) {
        spec.jobs = jobs;
        spec.failurePolicy = SweepFailurePolicy::CollectAndContinue;
        spec.maxCycles = cap.maxCycles;
        return runCacheSweep(spec, tinyBenchmark().program);
    };
    const SweepResult serial = sweep(1);
    ASSERT_EQ(serial.failures.size(), 1u);
    const PointFailure &f = serial.failures[0];
    EXPECT_EQ(f.strategy, spec.strategies[cap.col - 1]);
    EXPECT_EQ(f.cacheBytes, spec.cacheSizes[cap.row]);
    EXPECT_NE(f.message.find("exceeded"), std::string::npos);
    EXPECT_NE(f.snapshot.find("machine snapshot at cycle"),
              std::string::npos);
    for (std::size_t row = 0; row < spec.cacheSizes.size(); ++row) {
        for (std::size_t col = 1; col <= spec.strategies.size(); ++col) {
            if (row == cap.row && col == cap.col)
                EXPECT_EQ(serial.table.at(row, col), "ERR");
            else
                EXPECT_GT(std::stoull(serial.table.at(row, col)), 0u);
        }
    }

    const SweepResult parallel = sweep(8);
    EXPECT_EQ(serial.table.toText(), parallel.table.toText());
    EXPECT_EQ(serial.failureReport(), parallel.failureReport());
}

TEST(ExperimentFaultIsolation, FailFastRethrowsTheSimAbort)
{
    SweepSpec spec = isolationGrid();
    spec.maxCycles = capBelowSlowestPoint(spec).maxCycles;
    spec.failurePolicy = SweepFailurePolicy::FailFast;
    try {
        runCacheSweep(spec, tinyBenchmark().program);
        FAIL() << "expected SimAbort";
    } catch (const SimAbort &e) {
        EXPECT_TRUE(e.hasSnapshot());
    }
}

TEST(ExperimentSignal, InterruptionStartsNoFurtherPoint)
{
    struct SignalGuard
    {
        ~SignalGuard() { clearPendingSignal(); }
    } guard;

    // "SIGINT" arrives while the third point is starting: that point
    // unwinds at its next watchdog check, no later point starts, and
    // the sweep throws instead of rendering a table.
    SweepSpec spec;
    spec.cacheSizes = {16, 32, 64};
    spec.strategies = {"conv", "8-8"};
    spec.jobs = 1;
    int started = 0;
    spec.preRun = [&](Simulator &, const std::string &, unsigned) {
        if (++started == 3)
            requestShutdown(SIGINT);
    };
    EXPECT_THROW(runCacheSweep(spec, tinyBenchmark().program),
                 InterruptedError);
    EXPECT_EQ(started, 3);
}
