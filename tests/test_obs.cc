#include <gtest/gtest.h>

#include <array>
#include <set>
#include <sstream>

#include "assembler/assembler.hh"
#include "common/log.hh"
#include "obs/cpi_stack.hh"
#include "obs/json.hh"
#include "obs/stats_export.hh"
#include "obs/trace_export.hh"
#include "sim/simulator.hh"
#include "workloads/benchmark_program.hh"
#include "workloads/livermore.hh"

using namespace pipesim;

namespace
{

const workloads::Benchmark &
smallLivermore()
{
    static const auto b = workloads::buildLivermoreBenchmark(0.02);
    return b;
}

/** Two-kernel Livermore workload for trace golden tests. */
const workloads::Benchmark &
twoLoopLivermore()
{
    static const auto b = [] {
        std::vector<codegen::Kernel> ks{workloads::livermoreKernel(1, 0.05),
                                        workloads::livermoreKernel(3, 0.05)};
        return workloads::buildBenchmark(ks);
    }();
    return b;
}

SimConfig
configFor(const std::string &strategy, unsigned cache, unsigned mem,
          unsigned bus = 4)
{
    SimConfig cfg;
    if (strategy == "conv")
        cfg.fetch = conventionalConfigFor(cache, 16);
    else if (strategy == "tib")
        cfg.fetch = tibConfigFor(cache, 16);
    else
        cfg.fetch = pipeConfigFor(strategy, cache);
    cfg.mem.accessTime = mem;
    cfg.mem.busWidthBytes = bus;
    return cfg;
}

} // namespace

TEST(ProbePoint, NotifyReachesListenersAndDisconnectStops)
{
    obs::ProbePoint<obs::CycleClassEvent> point;
    EXPECT_FALSE(point.active());

    unsigned a = 0;
    unsigned b = 0;
    const auto ida = point.connect(
        [&](const obs::CycleClassEvent &) { ++a; });
    const auto idb = point.connect(
        [&](const obs::CycleClassEvent &) { ++b; });
    EXPECT_TRUE(point.active());

    point.notify(obs::CycleClassEvent{0, obs::CycleClass::Issue});
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 1u);

    point.disconnect(ida);
    point.notify(obs::CycleClassEvent{1, obs::CycleClass::Issue});
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 2u);

    point.disconnect(idb);
    EXPECT_FALSE(point.active());
    point.disconnect(idb); // double disconnect is harmless
}

TEST(CpiStack, PartitionsEveryWorkloadAndStrategy)
{
    // The stack's defining invariant: on every tier-1 workload and
    // strategy, the non-drain components sum exactly to totalCycles,
    // and adding drain gives the number of simulated ticks.
    const auto &bench = smallLivermore();
    for (const std::string strategy : {"conv", "8-8", "16-16", "tib"}) {
        for (unsigned mem : {1u, 6u}) {
            SimConfig cfg = configFor(strategy, 128, mem);
            Simulator sim(cfg, bench.program);
            const SimResult res = sim.run();

            const obs::CpiStack *stack = sim.cpiStack();
            ASSERT_NE(stack, nullptr) << strategy << " mem " << mem;
            EXPECT_EQ(stack->accountedCycles(),
                      std::uint64_t(res.totalCycles))
                << strategy << " mem " << mem;
            EXPECT_EQ(stack->totalTicks(),
                      std::uint64_t(sim.now()))
                << strategy << " mem " << mem;
            // Explicitly re-sum the components: the partition is
            // exact, not merely approximately right.
            std::uint64_t all = 0;
            for (unsigned c = 0; c < obs::numCycleClasses; ++c)
                all += stack->component(obs::CycleClass(c));
            EXPECT_EQ(all, stack->totalTicks())
                << strategy << " mem " << mem;
            EXPECT_EQ(all - stack->component(obs::CycleClass::Drain),
                      std::uint64_t(res.totalCycles))
                << strategy << " mem " << mem;
        }
    }
}

TEST(CpiStack, SplitPinnedToRecordedValues)
{
    // Every component of the stack, not just their sum, pinned to the
    // values the probe-bus accountant produced (Livermore at scale
    // 0.05, 64-byte caches, bus 4): the pipeline now feeds the stack
    // directly and the memory system's per-tick demand-fetch flag
    // decides the fetch_starve / bus_contention split.
    struct Pinned
    {
        const char *strategy;
        bool instructionPriority;
        unsigned accessTime;
        std::array<std::uint64_t, obs::numCycleClasses> cycles;
    };
    // issue, fetch_starve, load_data_wait, queue_full, reg_busy,
    // bus_contention, drain
    const Pinned pinned[] = {
        {"16-16", true, 1, {7905, 828, 2215, 0, 0, 0, 6}},
        {"16-16", true, 6, {7905, 8721, 7682, 0, 0, 847, 23}},
        {"16-16", false, 1, {7905, 2181, 1335, 0, 0, 201, 7}},
        {"16-16", false, 6, {7905, 10439, 3414, 0, 0, 4641, 2}},
        {"conv", true, 1, {7905, 5128, 609, 0, 0, 68, 2}},
        {"conv", true, 6, {7905, 33675, 1621, 0, 0, 4923, 11}},
        {"conv", false, 1, {7905, 5393, 344, 0, 0, 2274, 2}},
        {"conv", false, 6, {7905, 33520, 1376, 0, 0, 6119, 11}},
        {"tib", true, 1, {7905, 738, 2213, 0, 0, 0, 10}},
        {"tib", true, 6, {7905, 10366, 7879, 0, 0, 674, 30}},
        {"tib", false, 1, {7905, 2150, 1319, 0, 0, 229, 6}},
        {"tib", false, 6, {7905, 12566, 1893, 0, 0, 6223, 16}},
    };
    static const auto bench = workloads::buildLivermoreBenchmark(0.05);
    for (const Pinned &p : pinned) {
        SimConfig cfg = configFor(p.strategy, 64, p.accessTime);
        cfg.mem.instructionPriority = p.instructionPriority;
        const SimResult res = runSimulation(cfg, bench.program);
        for (unsigned c = 0; c < obs::numCycleClasses; ++c) {
            const std::string name =
                std::string("cpi_stack.") +
                obs::cycleClassName(obs::CycleClass(c));
            EXPECT_EQ(res.counter(name), p.cycles[c])
                << name << " for " << p.strategy << ", priority "
                << p.instructionPriority << ", mem " << p.accessTime;
        }
    }
}

TEST(CpiStack, BranchyWorkloadPartitions)
{
    // A branch-heavy hand-written loop with queue pressure: exercises
    // QueueFull/RegBusy classes too.
    const char *src = R"(
        li  r1, 0x4000
        li  r2, 40
        lbr b0, loop
    loop:
        ld  [r1 + 0]
        add r3, r3, r7
        add r4, r3, r3
        subi r2, r2, 1
        pbr b0, 0, nez, r2
        st  [r1 + 64]
        mov r7, r4
        halt
    .data 0x4000
        .word 7
    )";
    Program p = assembler::assemble(src);
    for (unsigned mem : {1u, 8u}) {
        SimConfig cfg = configFor("16-16", 64, mem);
        Simulator sim(cfg, p);
        const SimResult res = sim.run();
        ASSERT_NE(sim.cpiStack(), nullptr);
        EXPECT_EQ(sim.cpiStack()->accountedCycles(),
                  std::uint64_t(res.totalCycles))
            << "mem " << mem;
        EXPECT_EQ(sim.cpiStack()->totalTicks(), std::uint64_t(sim.now()))
            << "mem " << mem;
    }
}

TEST(CpiStack, CountersRegisteredInResult)
{
    Program p = assembler::assemble("nop\nnop\nhalt");
    SimConfig cfg;
    Simulator sim(cfg, p);
    const SimResult res = sim.run();

    for (const char *name :
         {"cpi_stack.issue", "cpi_stack.fetch_starve",
          "cpi_stack.load_data_wait", "cpi_stack.queue_full",
          "cpi_stack.reg_busy", "cpi_stack.bus_contention",
          "cpi_stack.drain"}) {
        EXPECT_TRUE(res.hasCounter(name)) << name;
    }
    EXPECT_EQ(res.counter("cpi_stack.issue"),
              sim.cpiStack()->component(obs::CycleClass::Issue));
    EXPECT_EQ(res.counter("cpi_stack.issue"), 2u); // nop, nop (HALT=drain)

    const std::string table = sim.cpiStack()->table();
    EXPECT_NE(table.find("issue"), std::string::npos);
    EXPECT_NE(table.find("total"), std::string::npos);
}

TEST(CpiStack, DisabledByConfig)
{
    Program p = assembler::assemble("halt");
    SimConfig cfg;
    cfg.cpiStack = false;
    Simulator sim(cfg, p);
    const SimResult res = sim.run();
    EXPECT_EQ(sim.cpiStack(), nullptr);
    EXPECT_FALSE(res.hasCounter("cpi_stack.issue"));
}

TEST(SimResultTest, HasCounterDistinguishesZeroFromAbsent)
{
    Program p = assembler::assemble("halt");
    SimConfig cfg;
    const SimResult res = runSimulation(cfg, p);
    EXPECT_TRUE(res.hasCounter("cpu.loads"));
    EXPECT_EQ(res.counter("cpu.loads"), 0u);
    EXPECT_FALSE(res.hasCounter("no.such.counter"));
    EXPECT_EQ(res.counter("no.such.counter"), 0u);
}

TEST(TraceExport, TwoLoopLivermoreTraceValidates)
{
    const auto &bench = twoLoopLivermore();
    SimConfig cfg = configFor("16-16", 128, 6, 8);
    Simulator sim(cfg, bench.program);
    obs::ChromeTraceWriter trace;
    trace.attach(sim.probes());
    const SimResult res = sim.run();
    trace.detach();
    EXPECT_GT(trace.eventCount(), 0u);

    std::ostringstream os;
    trace.write(os);
    const auto doc = obs::parseJson(os.str());
    ASSERT_TRUE(doc.has_value()) << "trace output is not valid JSON";
    ASSERT_TRUE(doc->isObject());

    const obs::JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    EXPECT_GE(events->array.size(), trace.eventCount());

    std::set<std::string> names;
    for (const auto &ev : events->array) {
        ASSERT_TRUE(ev.isObject());
        // The Trace Event Format's required keys, on every event.
        for (const char *k : {"ph", "ts", "pid", "name"})
            EXPECT_NE(ev.find(k), nullptr) << "missing key " << k;
        if (const auto *name = ev.find("name"))
            names.insert(name->string);
    }

    // The run issues instructions, hits and misses the icache, and
    // fetches lines off-chip, so these tracks must all be populated.
    for (const char *expected :
         {"issue", "icache_hit", "icache_miss", "line_fill",
          "queue_occupancy", "process_name", "thread_name"}) {
        EXPECT_TRUE(names.count(expected)) << "no event named "
                                           << expected;
    }
    // Retire instants are labelled with mnemonics.
    EXPECT_TRUE(names.count("halt"));
}

TEST(TraceExport, RetireInstantsCanBeDisabled)
{
    Program p = assembler::assemble("nop\nnop\nnop\nhalt");
    SimConfig cfg;
    Simulator sim(cfg, p);
    obs::ChromeTraceWriter trace(/*record_retires=*/false);
    trace.attach(sim.probes());
    sim.run();
    trace.detach();

    std::ostringstream os;
    trace.write(os);
    const auto doc = obs::parseJson(os.str());
    ASSERT_TRUE(doc.has_value());
    for (const auto &ev : doc->find("traceEvents")->array)
        EXPECT_NE(ev.find("name")->string, "nop");
}

TEST(StatsExport, RoundTripsThroughParser)
{
    Program p = assembler::assemble("nop\nnop\nhalt");
    SimConfig cfg;
    Simulator sim(cfg, p);
    const SimResult res = sim.run();

    std::ostringstream os;
    obs::writeStatsJson(os, res, &sim.stats(), "unit \"test\"");
    const auto doc = obs::parseJson(os.str());
    ASSERT_TRUE(doc.has_value()) << os.str();

    EXPECT_EQ(doc->find("label")->string, "unit \"test\"");
    EXPECT_EQ(doc->find("totalCycles")->number,
              double(res.totalCycles));
    EXPECT_EQ(doc->find("instructions")->number,
              double(res.instructions));

    const obs::JsonValue *counters = doc->find("counters");
    ASSERT_NE(counters, nullptr);
    ASSERT_TRUE(counters->isObject());
    // Every SimResult counter is present, including cpi_stack.*.
    EXPECT_EQ(counters->object.size(), res.counters.size());
    ASSERT_NE(counters->find("cpu.retired"), nullptr);
    EXPECT_EQ(counters->find("cpu.retired")->number, 3.0);
    EXPECT_NE(counters->find("cpi_stack.issue"), nullptr);

    const obs::JsonValue *formulas = doc->find("formulas");
    ASSERT_NE(formulas, nullptr);
    EXPECT_TRUE(formulas->isObject());
}

TEST(Json, WriterEscapesAndNests)
{
    std::ostringstream os;
    obs::JsonWriter w(os);
    w.beginObject();
    w.key("s").value("a\"b\\c\n\t");
    w.key("arr").beginArray();
    w.value(std::uint64_t(1)).value(2.5).value(true).value("x");
    w.endArray();
    w.key("neg").value(std::int64_t(-3));
    w.endObject();

    const auto doc = obs::parseJson(os.str());
    ASSERT_TRUE(doc.has_value()) << os.str();
    EXPECT_EQ(doc->find("s")->string, "a\"b\\c\n\t");
    ASSERT_EQ(doc->find("arr")->array.size(), 4u);
    EXPECT_EQ(doc->find("arr")->array[1].number, 2.5);
    EXPECT_TRUE(doc->find("arr")->array[2].boolean);
    EXPECT_EQ(doc->find("neg")->number, -3.0);
}

TEST(Json, ParserRejectsMalformedDocuments)
{
    for (const char *bad :
         {"", "{", "[1,]", "{\"a\":}", "{\"a\":1} trailing", "tru",
          "\"unterminated", "{\"a\" 1}", "[1 2]", "01"}) {
        EXPECT_FALSE(obs::parseJson(bad).has_value()) << bad;
    }
    for (const char *good :
         {"{}", "[]", "null", "true", "-1.5e3", "\"\\u0041\"",
          "{\"a\":[{\"b\":null}]}"}) {
        EXPECT_TRUE(obs::parseJson(good).has_value()) << good;
    }
    EXPECT_EQ(obs::parseJson("\"\\u0041\"")->string, "A");
}

TEST(Probes, RetireEventsMatchInstructionCount)
{
    const auto &bench = smallLivermore();
    SimConfig cfg = configFor("16-16", 128, 1);
    Simulator sim(cfg, bench.program);
    std::uint64_t retires = 0;
    const auto id = sim.probes().retire.connect(
        [&](const obs::RetireEvent &) { ++retires; });
    const SimResult res = sim.run();
    sim.probes().retire.disconnect(id);
    EXPECT_EQ(retires, res.instructions);
}
