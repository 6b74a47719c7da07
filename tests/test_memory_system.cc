#include <gtest/gtest.h>

#include "common/log.hh"

#include <bit>
#include <deque>

#include "mem/memory_system.hh"

using namespace pipesim;

namespace
{

/**
 * A scriptable memory client for driving the arbitration logic: it
 * posts the head of its queue, and records the responses the memory
 * system returns to it.
 */
class FakeClient : public MemClient
{
  public:
    std::deque<MemRequest> queue;
    unsigned acceptedCount = 0;
    /** Load values delivered, in delivery order, with their dataSeq. */
    std::vector<Word> loaded;
    std::vector<std::uint64_t> loadedSeqs;
    /** Input-bus beats delivered: (base address, bytes). */
    std::vector<std::pair<Addr, unsigned>> beats;

    /** Queue @p req behind the others. */
    void
    push(const MemRequest &req)
    {
        queue.push_back(req);
        repost();
    }

    /** Drop every queued request, the posted one included. */
    void
    cancel()
    {
        queue.clear();
        repost();
    }

    void
    accepted() override
    {
        queue.pop_front();
        ++acceptedCount;
        repost();
    }

    void
    loadData(const MemRequest &req, Word value) override
    {
        loaded.push_back(value);
        loadedSeqs.push_back(req.dataSeq);
    }

    void
    beat(const MemRequest &, Addr addr, unsigned bytes) override
    {
        beats.push_back({addr, bytes});
    }

  private:
    void
    repost()
    {
        if (queue.empty())
            withdraw();
        else
            post(queue.front());
    }
};

struct Harness
{
    explicit Harness(MemSystemConfig cfg = {}) : sys(cfg)
    {
        sys.setDataClient(&data);
        sys.setInstructionClient(&instr);
    }

    void
    run(Cycle cycles)
    {
        for (Cycle i = 0; i < cycles; ++i)
            sys.tick(now++);
    }

    MemorySystem sys;
    FakeClient data, instr;
    Cycle now = 0;
};

MemRequest
makeLoad(Addr addr, std::uint64_t seq)
{
    MemRequest req;
    req.addr = addr;
    req.bytes = wordBytes;
    req.cls = ReqClass::Data;
    req.dataSeq = seq;
    return req;
}

MemRequest
makeStore(Addr addr, Word value)
{
    MemRequest req;
    req.addr = addr;
    req.bytes = wordBytes;
    req.isStore = true;
    req.storeData = value;
    req.cls = ReqClass::Data;
    return req;
}

MemRequest
makeIFetch(Addr addr, unsigned bytes, ReqClass cls)
{
    MemRequest req;
    req.addr = addr;
    req.bytes = bytes;
    req.cls = cls;
    return req;
}

} // namespace

TEST(MemorySystemTest, LoadRoundTripLatency)
{
    MemSystemConfig cfg;
    cfg.accessTime = 3;
    Harness h(cfg);
    h.data.push(makeLoad(0x100, 0));

    h.run(3); // accepted at cycle 0, ready at 3, delivered at tick 3
    EXPECT_TRUE(h.data.loaded.empty());
    h.run(1);
    ASSERT_EQ(h.data.loaded.size(), 1u);
}

TEST(MemorySystemTest, StoreThenLoadSeesNewValue)
{
    Harness h;
    h.data.push(makeStore(0x40, 123));
    h.data.push(makeLoad(0x40, 0));
    h.run(10);
    ASSERT_EQ(h.data.loaded.size(), 1u);
}

TEST(MemorySystemTest, LoadBeforeStoreSeesOldValue)
{
    // Program order: load first, then a store to the same address.
    MemSystemConfig cfg;
    cfg.accessTime = 4;
    cfg.pipelined = true;
    Harness h(cfg);
    h.data.push(makeLoad(0x40, 0));
    h.data.push(makeStore(0x40, 99));
    h.run(12);
    ASSERT_EQ(h.data.loaded.size(), 1u);
}

TEST(MemorySystemTest, LineFetchBeatsMatchBusWidth)
{
    MemSystemConfig cfg;
    cfg.accessTime = 1;
    cfg.busWidthBytes = 8;
    Harness h(cfg);
    h.instr.push(
        makeIFetch(0x200, 32, ReqClass::IFetchDemand));
    h.run(10);
    ASSERT_EQ(h.instr.beats.size(), 4u);
    EXPECT_EQ(h.instr.beats[0], (std::pair<Addr, unsigned>{0x200, 8}));
    EXPECT_EQ(h.instr.beats[3], (std::pair<Addr, unsigned>{0x218, 8}));
}

TEST(MemorySystemTest, NarrowBusTakesTwiceTheBeats)
{
    MemSystemConfig cfg;
    cfg.busWidthBytes = 4;
    Harness h(cfg);
    h.instr.push(
        makeIFetch(0x200, 32, ReqClass::IFetchDemand));
    h.run(12);
    EXPECT_EQ(h.instr.beats.size(), 8u);
}

TEST(MemorySystemTest, InstructionPriorityConfigurable)
{
    for (bool ipriority : {true, false}) {
        MemSystemConfig cfg;
        cfg.instructionPriority = ipriority;
        Harness h(cfg);
        h.data.push(makeLoad(0x10, 0));
        h.instr.push(
            makeIFetch(0x100, 4, ReqClass::IFetchDemand));
        // One tick: exactly one of the two is accepted.
        h.sys.tick(h.now++);
        if (ipriority) {
            EXPECT_EQ(h.instr.acceptedCount, 1u);
            EXPECT_EQ(h.data.acceptedCount, 0u);
        } else {
            EXPECT_EQ(h.instr.acceptedCount, 0u);
            EXPECT_EQ(h.data.acceptedCount, 1u);
        }
    }
}

TEST(MemorySystemTest, PrefetchAlwaysLoses)
{
    MemSystemConfig cfg;
    cfg.pipelined = true;
    Harness h(cfg);
    h.instr.push(
        makeIFetch(0x300, 4, ReqClass::IPrefetch));
    h.data.push(makeLoad(0x10, 0));
    h.sys.tick(h.now++);
    EXPECT_EQ(h.data.acceptedCount, 1u);
    EXPECT_EQ(h.instr.acceptedCount, 0u);
    h.sys.tick(h.now++);
    EXPECT_EQ(h.instr.acceptedCount, 1u);
}

TEST(MemorySystemTest, NonPipelinedSerialisesRequests)
{
    MemSystemConfig cfg;
    cfg.accessTime = 4;
    cfg.pipelined = false;
    Harness h(cfg);
    h.data.push(makeLoad(0x10, 0));
    h.data.push(makeLoad(0x14, 1));
    h.run(2);
    EXPECT_EQ(h.data.acceptedCount, 1u); // second waits
    h.run(10);
    EXPECT_EQ(h.data.acceptedCount, 2u);
    EXPECT_EQ(h.data.loaded.size(), 2u);
}

TEST(MemorySystemTest, PipelinedAcceptsEveryCycle)
{
    MemSystemConfig cfg;
    cfg.accessTime = 4;
    cfg.pipelined = true;
    Harness h(cfg);
    for (unsigned i = 0; i < 4; ++i)
        h.data.push(makeLoad(0x10 + 4 * i, i));
    h.run(4);
    EXPECT_EQ(h.data.acceptedCount, 4u);
    h.run(8);
    EXPECT_EQ(h.data.loaded.size(), 4u);
}

TEST(MemorySystemTest, DataLoadsDeliverInProgramOrderAcrossFpu)
{
    // Load 0 goes to the FPU (blocking on a result); load 1 to the
    // external memory.  Even with the memory pipelined, load 1 must
    // not enter the LDQ before load 0.
    MemSystemConfig cfg;
    cfg.accessTime = 1;
    cfg.pipelined = true;
    cfg.fpuLatency = 6;
    Harness h(cfg);

    h.data.push(makeLoad(FpuDevice::opResult(FpuOp::Add), 0));
    h.data.push(makeLoad(0x20, 1));
    // Operand stores that start the FPU op (after the loads in
    // program order).
    h.data.push(
        makeStore(FpuDevice::opA(FpuOp::Add), std::bit_cast<Word>(1.0f)));
    h.data.push(
        makeStore(FpuDevice::opB(FpuOp::Add), std::bit_cast<Word>(2.0f)));

    h.run(30);
    const auto &order = h.data.loadedSeqs;
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], 0u);
    EXPECT_EQ(order[1], 1u);
}

TEST(MemorySystemTest, FpuStoreDoesNotOccupyExternalMemory)
{
    MemSystemConfig cfg;
    cfg.accessTime = 6;
    cfg.pipelined = false;
    Harness h(cfg);
    // A long external load in flight...
    h.data.push(makeLoad(0x10, 0));
    h.sys.tick(h.now++);
    EXPECT_EQ(h.data.acceptedCount, 1u);
    // ...must not block a store routed to the FPU.
    h.data.push(
        makeStore(FpuDevice::opA(FpuOp::Mul), std::bit_cast<Word>(2.f)));
    h.sys.tick(h.now++);
    EXPECT_EQ(h.data.acceptedCount, 2u);
}

TEST(MemorySystemTest, QuiescentTracksOutstandingWork)
{
    Harness h;
    EXPECT_TRUE(h.sys.quiescent());
    h.data.push(makeLoad(0x10, 0));
    h.sys.tick(h.now++);
    EXPECT_FALSE(h.sys.quiescent());
    h.run(5);
    EXPECT_TRUE(h.sys.quiescent());
}

TEST(MemorySystemTest, BusNarrowerThanWordRejected)
{
    MemSystemConfig cfg;
    cfg.busWidthBytes = 2;
    EXPECT_THROW(MemorySystem{cfg}, PanicError);
}

TEST(MemorySystemTest, AccessTimeOneDeliversNextCycle)
{
    MemSystemConfig cfg;
    cfg.accessTime = 1;
    Harness h(cfg);
    h.data.push(makeLoad(0x10, 0));
    h.sys.tick(0); // accepted
    EXPECT_TRUE(h.data.loaded.empty());
    h.sys.tick(1); // delivered
    ASSERT_EQ(h.data.loaded.size(), 1u);
}

TEST(MemorySystemTest, NonPipelinedSingleBeatSustainsOnePerTwoCycles)
{
    // With access time 1 a 4-byte load stream completes one request
    // every other cycle in the strict non-pipelined model: accept at
    // t, deliver at t+1 (memory busy), accept next at t+1 after the
    // transfer finishes within the same tick.
    MemSystemConfig cfg;
    cfg.accessTime = 1;
    cfg.pipelined = false;
    Harness h(cfg);
    for (unsigned i = 0; i < 4; ++i)
        h.data.push(makeLoad(0x10 + 4 * i, i));
    h.run(9);
    EXPECT_EQ(h.data.loaded.size(), 4u);
}

TEST(MemorySystemTest, PostedThenWithdrawnIsNeverGranted)
{
    // Withdrawn before the first tick, and again in the middle of an
    // idle stretch the gated tick skips.
    for (bool gated : {false, true}) {
        MemSystemConfig cfg;
        cfg.accessTime = 6;
        Harness h(cfg);
        h.instr.push(makeIFetch(0x100, 8, ReqClass::IFetchDemand));
        h.instr.cancel();
        h.data.push(makeLoad(0x10, 0));
        for (Cycle now = 0; now < 12; ++now) {
            if (now == 3) {
                h.instr.push(makeIFetch(0x200, 8, ReqClass::IFetchDemand));
                h.instr.cancel();
            }
            if (gated)
                h.sys.tickGated(now);
            else
                h.sys.tick(now);
        }
        EXPECT_EQ(h.instr.acceptedCount, 0u);
        EXPECT_TRUE(h.instr.beats.empty());
        EXPECT_EQ(h.data.loaded.size(), 1u);
        EXPECT_TRUE(h.sys.quiescent());
    }
}

TEST(MemorySystemTest, PostDuringGatedStretchIsGrantedAsUnderTicking)
{
    // A load waits out a slow access; a fetch posted while the gated
    // memory skips its ticks must be granted on the cycle a ticking
    // memory grants it, and every counter must agree.
    for (bool pipelined : {false, true}) {
        MemSystemConfig cfg;
        cfg.accessTime = 6;
        cfg.pipelined = pipelined;
        Harness ticking(cfg), gated(cfg);
        StatGroup tickingStats, gatedStats;
        ticking.sys.regStats(tickingStats, "mem");
        gated.sys.regStats(gatedStats, "mem");
        unsigned skipped = 0;
        for (Harness *h : {&ticking, &gated})
            h->data.push(makeLoad(0x10, 0));
        for (Cycle now = 0; now < 24; ++now) {
            if (now == 3) {
                for (Harness *h : {&ticking, &gated})
                    h->instr.push(
                        makeIFetch(0x100, 8, ReqClass::IFetchDemand));
                // The post lands inside a stretch the gate skips.
                EXPECT_GT(skipped, 0u);
            }
            ticking.sys.tick(now);
            skipped += !gated.sys.tickGated(now);
            EXPECT_EQ(gated.instr.acceptedCount, ticking.instr.acceptedCount)
                << "cycle " << now;
            EXPECT_EQ(gated.instr.beats, ticking.instr.beats)
                << "cycle " << now;
            EXPECT_EQ(gated.data.loaded, ticking.data.loaded)
                << "cycle " << now;
            EXPECT_EQ(gated.sys.demandFetchContended(),
                      ticking.sys.demandFetchContended())
                << "cycle " << now;
        }
        EXPECT_EQ(ticking.instr.acceptedCount, 1u);
        EXPECT_EQ(ticking.instr.beats.size(), 2u);
        EXPECT_EQ(gatedStats.dump(), tickingStats.dump());
    }
}
