/**
 * The functional executor (cpu/executor.hh), the one source of
 * architectural values: PBR delay slots, register banks, the data
 * queues, memory ordering and the FPU, executed sequentially; a
 * stream that ends instead of throwing; captures pinned to the
 * computed-value pipeline's; and the cycle engine it feeds, which the
 * loop memo now skips too, on its state rules and watchdogs.
 */

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "assembler/assembler.hh"
#include "common/abort.hh"
#include "cpu/executor.hh"
#include "mem/data_memory.hh"
#include "replay/capture.hh"
#include "sim/config.hh"
#include "sim/simulator.hh"
#include "workloads/benchmark_program.hh"
#include "workloads/reference.hh"
#include "workloads/synthetic.hh"

using namespace pipesim;

namespace
{

constexpr std::size_t allRecords = std::numeric_limits<std::size_t>::max();

/** One program run through the executor to its stream's end. */
struct Executed
{
    Program program;
    std::vector<replay::TraceRecord> records;
    DataMemory mem;
    bool halted = false;
    std::string end;

    Word word(Addr addr) const { return mem.readWord(addr); }
};

Executed
execute(const std::string &src)
{
    Executed r{assembler::assemble(src), {}, DataMemory(), false, ""};
    r.mem.loadProgram(r.program);
    Executor exec(r.program, r.mem);
    exec.commit(allRecords);
    replay::TraceRecord rec;
    while (exec.step(rec))
        r.records.push_back(rec);
    r.halted = exec.halted();
    r.end = exec.endReason();
    return r;
}

Addr
symbol(const Executed &r, const char *name)
{
    return *r.program.symbol(name);
}

} // namespace

TEST(ExecutorTest, DelaySlotCountsTakenAndNotTaken)
{
    for (unsigned count : {0u, 7u}) {
        for (bool taken : {true, false}) {
            const std::string src =
                "li r6, 0x4000\nli r1, 0\nli r2, " +
                std::to_string(taken ? 1 : 0) +
                "\nlbr b0, out\npbr b0, " + std::to_string(count) +
                ", nez, r2\n" + R"(
                addi r1, r1, 1
                addi r1, r1, 1
                addi r1, r1, 1
                addi r1, r1, 1
                addi r1, r1, 1
                addi r1, r1, 1
                addi r1, r1, 1
                addi r1, r1, 100
            out:
                st  [r6 + 0]
                mov r7, r1
                halt
            )";
            const Executed r = execute(src);
            const std::string what = "count " + std::to_string(count) +
                                     (taken ? " taken" : " not taken");
            ASSERT_TRUE(r.halted) << what;
            // Taken: exactly the delay slots run; not taken: all of it.
            EXPECT_EQ(r.word(0x4000), taken ? count : 107u) << what;
            const replay::TraceRecord &pbr = r.records[4];
            EXPECT_TRUE(pbr.isPbr) << what;
            EXPECT_EQ(pbr.branchTaken, taken) << what;
            EXPECT_EQ(pbr.branchTarget, symbol(r, "out")) << what;
        }
    }
}

TEST(ExecutorTest, PbrQueuedBehindAnotherCountsOnceAtTheFront)
{
    // The second PBR is the first one's delay slot; its own two slots
    // count from when the first redirect applies.
    const Executed r = execute(R"(
        li  r6, 0x4000
        li  r1, 0
        lbr b0, first
        lbr b1, second
        pbr b0, 2, always
        pbr b1, 2, always
        addi r1, r1, 1
        addi r1, r1, 100
    first:
        addi r1, r1, 10
        addi r1, r1, 20
        addi r1, r1, 1000
    second:
        st  [r6 + 0]
        mov r7, r1
        halt
    )");
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.word(0x4000), 31u);
}

TEST(ExecutorTest, RegisterBanksAreIsolated)
{
    const Executed r = execute(R"(
        li  r6, 0x4000
        li  r1, 42
        rsw
        li  r6, 0x4000
        li  r1, 7
        st  [r6 + 4]
        mov r7, r1
        rsw
        st  [r6 + 0]
        mov r7, r1
        halt
    )");
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.word(0x4000), 42u);
    EXPECT_EQ(r.word(0x4004), 7u);
}

TEST(ExecutorTest, MovR7R7PopsAndPushes)
{
    const Executed r = execute(R"(
        li  r6, 0x4000
        ld  [r6 + 0]
        ld  [r6 + 4]
        st  [r6 + 8]
        mov r7, r7
        st  [r6 + 12]
        mov r7, r7
        halt
    .data 0x4000
        .word 11, 22, 0, 0
    )");
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.word(0x4008), 11u);
    EXPECT_EQ(r.word(0x400c), 22u);
}

TEST(ExecutorTest, LoadSeesTheProgramImage)
{
    const Executed r = execute(R"(
        li  r6, 0x100
        ld  [r6 + 0]
        st  [r6 + 4]
        mov r7, r7
        halt
    .data 0x100
        .word 0xabcd, 0
    )");
    EXPECT_EQ(r.word(0x104), 0xabcdu);
}

TEST(ExecutorTest, StoreThenLoadSeesNewValue)
{
    const Executed r = execute(R"(
        li  r6, 0x40
        li  r1, 123
        st  [r6 + 0]
        mov r7, r1
        ld  [r6 + 0]
        st  [r6 + 4]
        mov r7, r7
        halt
    )");
    EXPECT_EQ(r.word(0x44), 123u);
}

TEST(ExecutorTest, LoadBeforeStoreSeesOldValue)
{
    const Executed r = execute(R"(
        li  r6, 0x40
        li  r1, 99
        ld  [r6 + 0]
        st  [r6 + 0]
        mov r7, r1
        st  [r6 + 4]
        mov r7, r7
        halt
    .data 0x40
        .word 7, 0
    )");
    EXPECT_EQ(r.word(0x44), 7u);
    EXPECT_EQ(r.word(0x40), 99u);
}

TEST(ExecutorTest, StoreDataFromALaterInstructionReachesAYoungerLoad)
{
    // The store waits for its data; the younger load to the same
    // address waits behind it in program order, then sees it.
    const Executed r = execute(R"(
        li  r6, 0x4000
        st  [r6 + 0]
        ld  [r6 + 0]
        li  r1, 77
        mov r7, r1
        mov r2, r7
        st  [r6 + 4]
        mov r7, r2
        halt
    .data 0x4000
        .word 5, 0
    )");
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.word(0x4000), 77u);
    EXPECT_EQ(r.word(0x4004), 77u);
}

TEST(ExecutorTest, FpuALatchPersistsAcrossOperations)
{
    const Executed r = execute(R"(
        li  r1, 0x7f00
        lui r2, 0x4000     ; 2.0
        lui r3, 0x4040     ; 3.0
        lui r4, 0x40a0     ; 5.0
        st  [r1 + 32]      ; mul A
        mov r7, r2
        st  [r1 + 36]      ; mul B: 2 * 3
        mov r7, r3
        st  [r1 + 36]      ; mul B again: A is still 2
        mov r7, r4
        ld  [r1 + 40]
        ld  [r1 + 40]
        li  r6, 0x4000
        st  [r6 + 0]
        mov r7, r7
        st  [r6 + 4]
        mov r7, r7
        halt
    )");
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.word(0x4000), std::bit_cast<Word>(6.0f));
    EXPECT_EQ(r.word(0x4004), std::bit_cast<Word>(10.0f));
}

TEST(ExecutorTest, FpuResultLoadBeforeItsOperandStores)
{
    const Executed r = execute(R"(
        li  r1, 0x7f00
        ld  [r1 + 40]      ; mul result, before its operands
        lui r2, 0x4020     ; 2.5
        lui r3, 0x4080     ; 4.0
        st  [r1 + 32]
        mov r7, r2
        st  [r1 + 36]
        mov r7, r3
        li  r6, 0x4000
        st  [r6 + 0]
        mov r7, r7
        halt
    )");
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.word(0x4000), std::bit_cast<Word>(10.0f));
}

TEST(ExecutorTest, DivisionByZeroIsPositiveInfinity)
{
    const Executed r = execute(R"(
        li  r1, 0x7f00
        lui r2, 0x3f80     ; 1.0
        li  r3, 0
        st  [r1 + 48]      ; div A
        mov r7, r2
        st  [r1 + 52]      ; div B
        mov r7, r3
        ld  [r1 + 56]
        li  r6, 0x4000
        st  [r6 + 0]
        mov r7, r7
        halt
    )");
    ASSERT_TRUE(r.halted);
    EXPECT_EQ(r.word(0x4000),
              std::bit_cast<Word>(std::numeric_limits<float>::infinity()));
}

TEST(ExecutorTest, UnsatisfiableR7PopEndsTheStream)
{
    for (const char *src : {
             "li r1, 1\nmov r2, r7\nhalt\n",
             // An FPU result whose operands never come.
             "li r1, 0x7f00\nld [r1 + 40]\nmov r2, r7\nhalt\n",
         }) {
        Program p = assembler::assemble(src);
        DataMemory mem;
        mem.loadProgram(p);
        Executor exec(p, mem);
        replay::TraceRecord rec;
        std::size_t records = 0;
        EXPECT_NO_THROW({
            while (exec.step(rec))
                ++records;
        });
        const bool fpu = std::string(src).find("ld") != std::string::npos;
        EXPECT_EQ(records, fpu ? 2u : 1u) << src;
        EXPECT_FALSE(exec.halted());
        EXPECT_NE(exec.endReason().find("never arrives"), std::string::npos);
        bool more = true;
        EXPECT_NO_THROW(more = exec.step(rec));
        EXPECT_FALSE(more);
        EXPECT_EQ(exec.position(), records);
    }
}

TEST(ExecutorTest, StoresReachMemoryWhenTheirRecordIsConsumed)
{
    // Reading records ahead leaves the memory as the consumed records
    // made it; the executor's own later loads see the waiting stores.
    const Program p = assembler::assemble(R"(
        li  r6, 0x4000
        li  r1, 9
        st  [r6 + 0]
        mov r7, r1         ; record 3 completes the store
        ld  [r6 + 0]
        st  [r6 + 4]
        mov r7, r7         ; record 6 stores the loaded 9
        halt
    .data 0x4000
        .word 1, 2
    )");
    DataMemory mem;
    mem.loadProgram(p);
    RecordStream records(p, mem);
    ASSERT_NE(records.at(7), nullptr);
    EXPECT_EQ(records.at(8), nullptr);
    EXPECT_EQ(mem.readWord(0x4000), 1u);
    EXPECT_EQ(mem.readWord(0x4004), 2u);
    records.consume(4);
    EXPECT_EQ(mem.readWord(0x4000), 9u);
    EXPECT_EQ(mem.readWord(0x4004), 2u);
    records.consume(8);
    EXPECT_EQ(mem.readWord(0x4004), 9u);
}

TEST(ExecutorCapture, PinnedDigestsOfTheComputedValuePipeline)
{
    // Taken from captureTrace when it recorded the retire stream of a
    // cycle-accurate run with computed values.
    workloads::BranchySpec branchy;
    branchy.delaySlots = 4;
    branchy.iterations = 64;
    const struct
    {
        const char *name;
        Program program;
        std::size_t records;
        const char *sha256;
    } pins[] = {
        {"livermore 1.0", workloads::buildLivermoreBenchmark(1.0).program,
         157620,
         "b8f92ae12ee30fd71e6a8d69d6092244c6d8eec6bb8a0568da302c2060648f23"},
        {"livermore 0.1", workloads::buildLivermoreBenchmark(0.1).program,
         15852,
         "9b6ff4ec8bb989eb727a70de01c8357fb0841de91b6d58ea9d3ea83a70cc0180"},
        {"branchy", workloads::buildBranchyProgram(branchy).program, 8347,
         "18890cfa589863e7208f8007b70e521665e4fd0e0a0416be08125d08c9a91161"},
    };
    for (const auto &pin : pins) {
        const replay::Trace t =
            replay::captureTrace(SimConfig{}, pin.program, "pinned capture");
        EXPECT_EQ(t.records.size(), pin.records) << pin.name;
        EXPECT_EQ(t.sha256, pin.sha256) << pin.name;
    }
}

TEST(ExecutorCapture, ANonHaltingProgramAbortsLikeTheCycleEngine)
{
    const Program p = assembler::assemble(R"(
        lbr b0, loop
    loop:
        nop
        pbr b0, 1, always
        nop
    )");
    SimConfig cfg;
    cfg.maxCycles = 2000;
    try {
        replay::captureTrace(cfg, p, "never halts");
        FAIL() << "expected SimAbort";
    } catch (const SimAbort &e) {
        EXPECT_NE(std::string(e.what()).find("exceeded 2000 cycles"),
                  std::string::npos);
        EXPECT_TRUE(e.hasSnapshot());
    }
}

namespace
{

/** What run() of @p p under @p cfg aborted with: message, snapshot. */
std::pair<std::string, std::string>
abortOf(const SimConfig &cfg, const Program &p, bool listen)
{
    Simulator sim(cfg, p);
    if (listen)
        sim.probes().retire.connect([](const obs::RetireEvent &) {});
    try {
        sim.run();
    } catch (const SimAbort &e) {
        EXPECT_TRUE(e.hasSnapshot());
        EXPECT_EQ(listen, sim.ticksExecuted() == sim.now());
        return {e.what(), e.snapshot().toString()};
    }
    ADD_FAILURE() << "expected SimAbort";
    return {};
}

} // namespace

TEST(ExecutorCycleEngine, NeverHaltingProgramAbortsAlikeWithAndWithoutMemo)
{
    // Loops the memo skips, one with memory traffic in flight.
    const char *programs[] = {
        R"(
            lbr b0, loop
        loop:
            nop
            pbr b0, 1, always
            nop
        )",
        R"(
            li  r6, 0x4000
            lbr b0, loop
        loop:
            st  [r6 + 0]
            mov r7, r6
            ld  [r6 + 0]
            mov r5, r7
            pbr b0, 1, always
            addi r6, r6, 4
        )",
    };
    for (const char *src : programs) {
        const Program p = assembler::assemble(src);
        for (Cycle limit : {Cycle(2000), Cycle(2003), Cycle(2007)}) {
            SimConfig cfg;
            cfg.maxCycles = limit;
            cfg.mem.accessTime = 3;
            const auto memo = abortOf(cfg, p, false);
            const auto ticking = abortOf(cfg, p, true);
            EXPECT_NE(memo.first.find("exceeded"), std::string::npos);
            EXPECT_EQ(memo.first, ticking.first) << limit;
            EXPECT_EQ(memo.second, ticking.second) << limit;
        }
    }
}

TEST(ExecutorCycleEngine, CursorAboveTheClockFailsRestoreWithoutExecuting)
{
    const auto bench = workloads::buildLivermoreBenchmark(0.03);
    const Program &program = bench.program;
    SimConfig cfg;
    Simulator a(cfg, program);
    while (a.now() < 500)
        a.step();
    const std::uint64_t cursor = a.pipeline().cursor();
    StateWriter keyed(a.now(), &FpuDevice::contains);
    a.saveState(keyed);
    std::vector<std::uint8_t> payload = keyed.take();
    // Every count holding the cursor's value: the cursor among them.
    unsigned patched = 0;
    for (const StateWriter::Field &f : keyed.fields()) {
        std::uint64_t v = 0;
        for (unsigned i = 0; i < 8; ++i)
            v |= std::uint64_t(payload[f.offset + i]) << (8 * i);
        if (f.tag != FieldTag::Count || v != cursor)
            continue;
        for (unsigned i = 0; i < 8; ++i)
            payload[f.offset + i] = std::uint8_t((std::uint64_t(1) << 40) >>
                                                 (8 * i));
        ++patched;
    }
    ASSERT_GT(patched, 0u);

    Simulator b(cfg, program);
    StateReader r(payload, "patched cursor");
    try {
        b.restoreState(r);
        FAIL() << "expected FatalError";
    } catch (const FatalError &e) {
        EXPECT_NE(std::string(e.what()).find("above the clock"),
                  std::string::npos)
            << e.what();
    }
    // Nothing executed: the backing store is the bare image.
    EXPECT_EQ(b.dataMemory().dirtyPageCount(), 0u);
}

TEST(ExecutorCycleEngine, MemoryHoldsExactlyTheConsumedRecordsStores)
{
    // However far the memo read ahead, the backing store holds the
    // stores of the records before the cursor, no more.
    const auto bench = workloads::buildLivermoreBenchmark(0.1);
    const Program &program = bench.program;
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);
    const std::uint64_t total = runSimulation(cfg, program).instructions;
    for (std::uint64_t record : {total / 7, total / 3, total / 2}) {
        Simulator sim(cfg, program);
        sim.runUntil(record);
        ASSERT_LT(sim.ticksExecuted(), sim.now());
        DataMemory want;
        want.loadProgram(program);
        Executor exec(program, want);
        exec.commit(allRecords);
        replay::TraceRecord rec;
        while (exec.position() < sim.pipeline().cursor())
            ASSERT_TRUE(exec.step(rec));
        for (Addr a = 0; a < want.size(); a += wordBytes)
            ASSERT_EQ(sim.dataMemory().readWord(a), want.readWord(a))
                << "word 0x" << std::hex << a << " at record " << std::dec
                << record;
    }
}

TEST(ExecutorCycleEngine, RestoreBehindTheCursorReexecutesFromTheEntry)
{
    const auto bench = workloads::buildLivermoreBenchmark(0.03);
    SimConfig cfg;
    const SimResult cold = runSimulation(cfg, bench.program);

    Simulator a(cfg, bench.program);
    a.runUntil(cold.instructions / 3);
    StateWriter w;
    a.saveState(w);
    const std::vector<std::uint8_t> payload = w.take();

    // b has consumed past the payload's cursor: it must go back.
    Simulator b(cfg, bench.program);
    b.runUntil(2 * cold.instructions / 3);
    StateReader r(payload, "earlier cursor");
    b.restoreState(r);
    r.expectEnd();
    const SimResult got = b.run();
    EXPECT_EQ(got.totalCycles, cold.totalCycles);
    EXPECT_EQ(got.counters, cold.counters);
    for (std::size_t k = 0; k < bench.kernels.size(); ++k) {
        std::string diag;
        EXPECT_TRUE(workloads::verifyAgainstReference(
            b.dataMemory(), bench.kernels[k], bench.codeInfo[k], &diag))
            << "kernel " << k + 1 << ": " << diag;
    }
}

TEST(ExecutorCycleEngine, MemoLandsOnTheTickingMachinesBytes)
{
    // A skip copies data addresses from a period earlier, then gives
    // every live load and store its record's address: a machine
    // stopped after skips saves the bytes a ticking one saves, and an
    // abort prints the same snapshot, in-flight addresses included.
    const auto bench = workloads::buildLivermoreBenchmark(0.1);
    const Program &program = bench.program;
    const auto saved = [](const Simulator &sim) {
        StateWriter w;
        sim.saveState(w);
        return w.take();
    };
    // Slow memory keeps loads and stores in flight across boundaries;
    // these stops fall where Livermore's later kernels hold some.
    std::vector<SimConfig> configs(3);
    configs[0].fetch = conventionalConfigFor(64);
    configs[1].fetch = pipeConfigFor("16-16", 64);
    configs[2].fetch = pipeConfigFor("8-8", 64);
    for (SimConfig &cfg : configs) {
        cfg.mem.accessTime = 6;
        const SimResult full = runSimulation(cfg, program);
        for (int i = 32; i < 36; ++i) {
            const std::string what =
                cfg.fetchName() + " at " + std::to_string(i) + "/40";
            Simulator gated(cfg, program), stepped(cfg, program);
            gated.runUntil(full.instructions * i / 40);
            while (stepped.pipeline().cursor() < gated.pipeline().cursor())
                stepped.step();
            while (stepped.now() < gated.now())
                stepped.step();
            EXPECT_EQ(saved(gated), saved(stepped)) << what;

            SimConfig capped = cfg;
            capped.maxCycles = full.totalCycles * i / 40;
            const auto memo = abortOf(capped, program, false);
            const auto ticking = abortOf(capped, program, true);
            EXPECT_EQ(memo.second, ticking.second) << what;
        }
    }
}

TEST(ExecutorCycleEngine, WorkersShareOneProgram)
{
    // Sweep workers each run their own executor over one Program.
    const auto bench = workloads::buildLivermoreBenchmark(0.03);
    std::vector<SimConfig> configs(4);
    configs[0].fetch = conventionalConfigFor(64);
    configs[1].fetch = pipeConfigFor("8-8", 32);
    configs[2].fetch = tibConfigFor(128);
    configs[3].mem.accessTime = 6;
    std::vector<SimResult> serial, pooled(configs.size());
    for (const SimConfig &cfg : configs)
        serial.push_back(runSimulation(cfg, bench.program));
    std::vector<std::thread> workers;
    for (std::size_t i = 0; i < configs.size(); ++i)
        workers.emplace_back([&, i] {
            pooled[i] = runSimulation(configs[i], bench.program);
        });
    for (std::thread &t : workers)
        t.join();
    for (std::size_t i = 0; i < configs.size(); ++i) {
        EXPECT_EQ(pooled[i].totalCycles, serial[i].totalCycles) << i;
        EXPECT_EQ(pooled[i].counters, serial[i].counters) << i;
    }
}

TEST(ExecutorCycleEngine, PaperScaleTicksAFewPercent)
{
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);
    const auto bench = workloads::buildLivermoreBenchmark(1.0);
    Simulator sim(cfg, bench.program);
    sim.run();
    EXPECT_LE(double(sim.ticksExecuted()), 0.06 * double(sim.now()));
}
