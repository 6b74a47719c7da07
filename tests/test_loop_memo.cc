/**
 * The loop memo (sim/loop_memo.hh): a trace-driven Simulator jumps
 * over loop iterations that repeat the previous ones, and must give
 * exactly what the cycle engine gives — total cycles, instructions
 * and the full statistics dump — across fetch strategies, cache
 * sizes, memory speeds, memory organizations and bus widths.  Sampled
 * windows must match a replay with a probe listener attached (which
 * turns the memo off), a watchdog must abort at the same cycle with
 * the same message, and a checkpoint taken after a skip must restore
 * and finish like the uninterrupted run.
 */

#include <gtest/gtest.h>

#include <limits>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "assembler/assembler.hh"
#include "common/abort.hh"
#include "cpu/regfile.hh"
#include "mem/external_memory.hh"
#include "mem/fpu.hh"
#include "queue/arch_queues.hh"
#include "replay/capture.hh"
#include "replay/replay_engine.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "workloads/benchmark_program.hh"

using namespace pipesim;

namespace
{

constexpr std::size_t allRecords = std::numeric_limits<std::size_t>::max();

/** A program and the trace captured from it. */
struct Workload
{
    Program program;
    replay::Trace trace;
};

Workload
capture(Program program)
{
    replay::Trace trace =
        replay::captureTrace(SimConfig{}, program, "loop memo test");
    return Workload{std::move(program), std::move(trace)};
}

/** Livermore at a tenth of paper scale: every kernel reaches steady state. */
const Workload &
livermore()
{
    static const Workload w =
        capture(workloads::buildLivermoreBenchmark(0.1).program);
    return w;
}

const Workload &
paperLivermore()
{
    static const Workload w =
        capture(workloads::buildLivermoreBenchmark(1.0).program);
    return w;
}

/**
 * A trace-driven machine over its own backing store, optionally with
 * a probe listener attached, which turns the idle skip and the memo
 * off.
 */
struct TraceMachine
{
    TraceMachine(const SimConfig &cfg, const Workload &w, bool listen,
                 std::size_t first = 0)
    {
        mem.loadProgram(w.program);
        sim = std::make_unique<Simulator>(cfg, w.program, mem, &w.trace,
                                          first);
        if (listen)
            sim->probes().retire.connect([](const obs::RetireEvent &) {});
    }

    DataMemory mem;
    std::unique_ptr<Simulator> sim;
};

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
    std::vector<Case> cases;
    for (const std::string strategy :
         {"conv", "8-8", "16-16", "16-32", "32-32", "tib"}) {
        for (unsigned size : {32u, 128u, 1024u}) {
            for (unsigned access : {1u, 6u}) {
                for (unsigned bus : {4u, 8u}) {
                    for (bool pipelined : {false, true}) {
                        SweepSpec spec;
                        spec.mem.accessTime = access;
                        spec.mem.busWidthBytes = bus;
                        spec.mem.pipelined = pipelined;
                        const auto cfg =
                            makeValidSweepConfig(spec, strategy, size);
                        if (!cfg)
                            continue;
                        std::string name = strategy;
                        for (char &ch : name)
                            if (ch == '-')
                                ch = 'x';
                        cases.push_back(
                            {name + "_" + std::to_string(size) + "_t" +
                                 std::to_string(access) + "_bus" +
                                 std::to_string(bus) +
                                 (pipelined ? "_pipe" : "_nonpipe"),
                             *cfg});
                    }
                }
            }
        }
    }
    const auto variant = [&cases](const std::string &name, auto &&edit) {
        SimConfig cfg;
        cfg.fetch = pipeConfigFor("16-16", 128);
        edit(cfg);
        cases.push_back({"p16x16_128_" + name, cfg});
    };
    variant("guaranteed", [](SimConfig &c) {
        c.fetch.offchipPolicy = OffchipPolicy::GuaranteedOnly;
    });
    variant("alu3", [](SimConfig &c) { c.cpu.aluLatency = 3; });
    // The Livermore code keeps more than two loads in flight, so a
    // 2-entry LDQ deadlocks either engine; the other queues shrink.
    variant("queues2", [](SimConfig &c) {
        c.cpu.laqEntries = c.cpu.saqEntries = c.cpu.sdqEntries = 2;
    });
    // The data cache compares data addresses, so the memo is off.
    variant("dcache", [](SimConfig &c) { c.mem.dcacheBytes = 64; });
    return cases;
}

class LoopMemo : public ::testing::TestWithParam<Case>
{
};

TEST_P(LoopMemo, TraceMachineMatchesCycleEngine)
{
    const SimConfig &cfg = GetParam().cfg;
    const Workload &w = livermore();

    // A listener keeps the cycle engine unmemoized: the reference.
    Simulator cycle(cfg, w.program);
    cycle.probes().retire.connect([](const obs::RetireEvent &) {});
    const SimResult want = cycle.run();

    TraceMachine memo(cfg, w, false);
    memo.sim->runUntil(allRecords);
    const SimResult got = memo.sim->result();

    EXPECT_TRUE(memo.sim->pipeline().traceExhausted());
    EXPECT_EQ(got.totalCycles, want.totalCycles);
    EXPECT_EQ(got.instructions, want.instructions);
    EXPECT_EQ(got.counters, want.counters);
    EXPECT_EQ(memo.sim->now(), cycle.now());
    EXPECT_EQ(memo.sim->stats().dump(), cycle.stats().dump());
    if (cfg.mem.dcacheBytes == 0) {
        EXPECT_LT(memo.sim->ticksExecuted(), cycle.ticksExecuted());
    }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, LoopMemo, ::testing::ValuesIn(matrix()),
    [](const ::testing::TestParamInfo<Case> &info) {
        return info.param.name;
    });

TEST(LoopMemoSampled, WindowsMatchListenerAttachedReplay)
{
    const Workload &w = livermore();
    const auto sync = replay::computeSyncPoints(w.program, w.trace);
    replay::ReplayOptions opt;
    opt.samplePeriod = 5000;
    opt.sampleWarmup = 2000;
    opt.sampleMeasure = 2000;
    const auto plan =
        replay::planSampleWindows(w.trace.records.size(), sync, opt);
    ASSERT_GE(plan.size(), 2u);

    std::vector<SimConfig> configs(3);
    configs[0].fetch = pipeConfigFor("16-16", 128);
    configs[1].fetch = conventionalConfigFor(32);
    configs[1].mem.accessTime = 6;
    configs[2].fetch = tibConfigFor(128);
    configs[2].mem.busWidthBytes = 8;

    std::uint64_t ticks = 0, cycles = 0;
    for (const SimConfig &cfg : configs) {
        for (const replay::SampleWindow &win : plan) {
            const std::string what = cfg.fetchName() + " window at " +
                                     std::to_string(win.start);
            TraceMachine memo(cfg, w, false, win.start);
            TraceMachine ticking(cfg, w, true, win.start);
            for (TraceMachine *m : {&memo, &ticking})
                m->sim->fetchUnit().reset(w.trace.records[win.start].pc);
            for (std::size_t end : {win.warmEnd, win.measureEnd}) {
                memo.sim->runUntil(end);
                ticking.sim->runUntil(end);
                EXPECT_EQ(memo.sim->now(), ticking.sim->now()) << what;
                EXPECT_EQ(memo.sim->pipeline().cursor(),
                          ticking.sim->pipeline().cursor())
                    << what;
                EXPECT_EQ(memo.sim->stats().dump(),
                          ticking.sim->stats().dump())
                    << what;
            }
            ticks += memo.sim->ticksExecuted();
            cycles += memo.sim->now();
        }
    }
    // The windows are long enough for the memo to skip.
    EXPECT_LT(ticks, cycles / 2);
}

/** What a run that aborted left behind. */
struct Abort
{
    std::string message;
    Cycle cycle = 0;
    bool skipped = false; //!< the machine jumped over some cycles
};

Abort
abortOf(const SimConfig &cfg, const Workload &w, bool listen)
{
    TraceMachine m(cfg, w, listen);
    try {
        m.sim->runUntil(allRecords);
    } catch (const SimAbort &e) {
        EXPECT_TRUE(e.hasSnapshot());
        return {e.what(), e.snapshot().cycle,
                m.sim->ticksExecuted() < m.sim->now()};
    }
    ADD_FAILURE() << "expected SimAbort";
    return {};
}

TEST(LoopMemoWatchdog, CycleLimitInsideASteadyStateAbortsAtTheSameCycle)
{
    const Workload &w = livermore();
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);
    const SimResult full = runSimulation(cfg, w.program);
    // Limits spread over one iteration's length, in the middle of the
    // run, where the memo is jumping over iterations.
    for (Cycle extra = 0; extra < 8; ++extra) {
        cfg.maxCycles = full.totalCycles / 2 + 5 * extra;
        const Abort memo = abortOf(cfg, w, false);
        const Abort ticking = abortOf(cfg, w, true);
        EXPECT_EQ(memo.message, ticking.message);
        EXPECT_EQ(memo.cycle, ticking.cycle);
        EXPECT_EQ(memo.cycle, cfg.maxCycles + 1);
        EXPECT_TRUE(memo.skipped) << "limit " << cfg.maxCycles;
    }
}

TEST(LoopMemoWatchdog, ProgressWindowInsideASteadyStateAbortsAtTheSameCycle)
{
    // Slow memory and a small cache leave retire gaps of many sizes;
    // each window trips at the first gap longer than it, some of them
    // after the memo has jumped over earlier kernels' iterations.
    const Workload &w = livermore();
    SimConfig cfg;
    cfg.fetch = conventionalConfigFor(32);
    cfg.mem.accessTime = 6;

    TraceMachine probe(cfg, w, false);
    std::vector<Cycle> retires;
    probe.sim->probes().retire.connect(
        [&retires](const obs::RetireEvent &e) { retires.push_back(e.cycle); });
    probe.sim->runUntil(allRecords);
    std::map<Cycle, bool> gaps;
    for (std::size_t i = 1; i < retires.size(); ++i)
        gaps[retires[i] - retires[i - 1]] = true;
    ASSERT_GT(gaps.size(), 3u);

    unsigned afterSkip = 0;
    for (const auto &[gap, unused] : gaps) {
        if (gap < 2)
            continue;
        cfg.progressWindow = gap - 1;
        const Abort memo = abortOf(cfg, w, false);
        const Abort ticking = abortOf(cfg, w, true);
        EXPECT_EQ(memo.message, ticking.message) << "window " << gap - 1;
        EXPECT_EQ(memo.cycle, ticking.cycle) << "window " << gap - 1;
        afterSkip += memo.skipped;
    }
    EXPECT_GT(afterSkip, 0u);
}

TEST(LoopMemoWork, PaperScaleExactReplayTicksAFewPercent)
{
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);
    TraceMachine m(cfg, paperLivermore(), false);
    m.sim->runUntil(allRecords);
    EXPECT_LE(double(m.sim->ticksExecuted()), 0.06 * double(m.sim->now()));
}

/**
 * A loop whose store goes to memory twice, then to the FPU's operand
 * latch: the two kinds time differently (a memory store holds the
 * unpipelined external memory, so the load behind it waits), and the
 * pcs alone repeat every iteration.  Only the record check's device
 * address tells the iterations apart.
 */
const Workload &
storeRotation()
{
    static const Workload w = capture(assembler::assemble(R"(
        li   r1, 0x4100
        li   r3, 0x4104
        li   r4, 0x7F00     ; FpuDevice::opA(FpuOp::Add)
        li   r5, 0x4200
        li   r2, 300
        lbr  b0, loop
    loop:
        mov  r7, r2
        st   [r1 + 0]
        ld   [r5 + 0]
        mov  r6, r7
        mov  r6, r1
        mov  r1, r3
        mov  r3, r4
        mov  r4, r6
        subi r2, r2, 1
        pbr  b0, 0, nez, r2
        halt
    .data 0x4100
        .word 0, 0
    .data 0x4200
        .word 7
    )"));
    return w;
}

TEST(LoopMemoRecords, DeviceAddressesSeparateIterations)
{
    ASSERT_EQ(FpuDevice::opA(FpuOp::Add), 0x7F00u);
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);
    cfg.mem.accessTime = 6;
    const Workload &w = storeRotation();

    Simulator cycle(cfg, w.program);
    cycle.run();
    TraceMachine memo(cfg, w, false);
    memo.sim->runUntil(allRecords);
    EXPECT_EQ(memo.sim->now(), cycle.now());
    EXPECT_EQ(memo.sim->stats().dump(), cycle.stats().dump());
    // The three-iteration period is found.
    EXPECT_LT(memo.sim->ticksExecuted(), memo.sim->now() / 2);
}

/** The memo key of @p component's state at cycle @p now. */
template <class Component, class... Args>
std::vector<std::uint8_t>
keyOf(const Component &component, Cycle now, Args... args)
{
    StateWriter w(now, &FpuDevice::contains);
    component.saveState(w, args...);
    return w.key();
}

TEST(LoopMemoKey, FutureStampsAreKeyedPastOnesAreNot)
{
    // Every use of these stamps compares them with the current or a
    // later clock, so how far one lies ahead matters and how long ago
    // a past one was does not.
    const Cycle now = 100;
    const auto regs = [](Cycle busy) {
        RegFile r;
        r.setBusyUntil(3, busy);
        return r;
    };
    EXPECT_NE(keyOf(regs(now + 2), now), keyOf(regs(now + 3), now));
    EXPECT_EQ(keyOf(regs(now - 1), now), keyOf(regs(now - 7), now));
    EXPECT_EQ(keyOf(regs(now), now), keyOf(regs(0), now));

    const auto extMem = [](Cycle accepted) {
        ExternalMemory m(6, true);
        MemRequest req;
        req.addr = 0x100;
        req.bytes = 8;
        req.cls = ReqClass::IFetchDemand;
        m.accept(req, accepted);
        return m;
    };
    EXPECT_NE(keyOf(extMem(now - 1), now, 0), keyOf(extMem(now - 2), now, 0));
    EXPECT_EQ(keyOf(extMem(now - 6), now, 0), keyOf(extMem(now - 9), now, 0));

    const auto fpu = [](Cycle started) {
        FpuDevice f(4);
        f.store(FpuDevice::opB(FpuOp::Mul), 0, started);
        return f;
    };
    EXPECT_NE(keyOf(fpu(now - 1), now, 0), keyOf(fpu(now - 2), now, 0));
    EXPECT_EQ(keyOf(fpu(now - 4), now, 0), keyOf(fpu(now - 8), now, 0));
}

TEST(LoopMemoKey, DataAddressesKeepOnlyDeviceIdentity)
{
    const auto laq = [](Addr addr) {
        ArchQueues q(8, 8, 8, 8);
        q.laq().push(PendingAccess{5, addr});
        return q;
    };
    EXPECT_EQ(keyOf(laq(0x4000), 0, 6), keyOf(laq(0x4abc), 0, 6));
    EXPECT_NE(keyOf(laq(0x4000), 0, 6),
              keyOf(laq(FpuDevice::opResult(FpuOp::Add)), 0, 6));
    EXPECT_NE(keyOf(laq(FpuDevice::opResult(FpuOp::Add)), 0, 6),
              keyOf(laq(FpuDevice::opResult(FpuOp::Mul)), 0, 6));
    // Sequence numbers count from the queue's base.
    EXPECT_EQ(keyOf(laq(0x4000), 0, 6), keyOf(laq(0x4000), 0, 6));
    EXPECT_NE(keyOf(laq(0x4000), 0, 6), keyOf(laq(0x4000), 0, 7));
}

/** The little-endian 8-byte field at @p offset. */
std::uint64_t
fieldAt(const std::vector<std::uint8_t> &payload, std::size_t offset)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= std::uint64_t(payload[offset + i]) << (8 * i);
    return v;
}

TEST(LoopMemoCheckpoint, SaveAfterASkipRestoresAndFinishesIdentically)
{
    const Workload &w = livermore();
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);
    const std::size_t middle = w.trace.records.size() / 2;

    TraceMachine whole(cfg, w, false);
    whole.sim->runUntil(allRecords);

    // Stop in the middle of a steady state, past a skip.
    TraceMachine a(cfg, w, false);
    a.sim->runUntil(middle);
    ASSERT_LT(a.sim->ticksExecuted(), a.sim->now());

    // The state a skip lands on is the state ticking reaches, apart
    // from data addresses and values (copied, never timed): the same
    // key, and every stamp, count and sequence number equal.
    TraceMachine ticking(cfg, w, true);
    ticking.sim->runUntil(middle);
    ASSERT_EQ(a.sim->now(), ticking.sim->now());
    StateWriter ka(a.sim->now(), &FpuDevice::contains);
    StateWriter kt(ticking.sim->now(), &FpuDevice::contains);
    a.sim->saveState(ka);
    ticking.sim->saveState(kt);
    EXPECT_EQ(ka.key(), kt.key());
    ASSERT_EQ(ka.fields(), kt.fields());
    for (const StateWriter::Field &f : ka.fields())
        EXPECT_EQ(fieldAt(ka.data(), f.offset), fieldAt(kt.data(), f.offset))
            << "field at byte " << f.offset;

    // Save, restore into a fresh machine, finish.
    StateWriter save;
    a.sim->saveState(save);
    const std::vector<std::uint8_t> payload = save.take();
    TraceMachine b(cfg, w, false);
    StateReader r(payload, "loop memo checkpoint");
    b.sim->restoreState(r);
    r.expectEnd();
    b.sim->runUntil(allRecords);
    EXPECT_EQ(b.sim->now(), whole.sim->now());
    EXPECT_EQ(b.sim->stats().dump(), whole.sim->stats().dump());

    Simulator cycle(cfg, w.program);
    cycle.run();
    EXPECT_EQ(b.sim->stats().dump(), cycle.stats().dump());
}

} // namespace
