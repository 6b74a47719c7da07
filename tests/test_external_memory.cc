#include <gtest/gtest.h>

#include "common/log.hh"

#include "mem/external_memory.hh"

using namespace pipesim;

namespace
{

MemRequest
load(Addr addr, unsigned bytes = 4)
{
    MemRequest req;
    req.addr = addr;
    req.bytes = bytes;
    req.cls = ReqClass::Data;
    return req;
}

MemRequest
store(Addr addr)
{
    MemRequest req;
    req.addr = addr;
    req.bytes = 4;
    req.isStore = true;
    return req;
}

} // namespace

TEST(ExternalMemoryTest, LoadReadyAfterAccessTime)
{
    ExternalMemory mem(3, false);
    mem.accept(load(0x100), 10);
    EXPECT_FALSE(mem.peekReady(12));
    auto ready = mem.peekReady(13);
    ASSERT_TRUE(ready);
    EXPECT_EQ(ready->addr, 0x100u);
}

TEST(ExternalMemoryTest, NonPipelinedBusyUntilDelivered)
{
    ExternalMemory mem(1, false);
    EXPECT_TRUE(mem.canAccept());
    mem.accept(load(0x0), 0);
    EXPECT_FALSE(mem.canAccept());
    mem.popReady(1);
    // Response handed to the bus; memory busy while transferring.
    mem.setTransferring(true);
    EXPECT_FALSE(mem.canAccept());
    mem.setTransferring(false);
    EXPECT_TRUE(mem.canAccept());
}

TEST(ExternalMemoryTest, PipelinedAcceptsWhileBusy)
{
    ExternalMemory mem(6, true);
    mem.accept(load(0x0), 0);
    EXPECT_TRUE(mem.canAccept());
    mem.accept(load(0x10), 1);
    EXPECT_EQ(mem.inflightCount(), 2u);
    // Responses leave in acceptance order.
    auto first = mem.peekReady(7);
    ASSERT_TRUE(first);
    EXPECT_EQ(first->addr, 0x0u);
    mem.popReady(7);
    auto second = mem.peekReady(7);
    ASSERT_TRUE(second);
    EXPECT_EQ(second->addr, 0x10u);
}

TEST(ExternalMemoryTest, StoresRetireSilently)
{
    ExternalMemory mem(2, false);
    StatGroup stats;
    mem.regStats(stats, "m");
    mem.accept(store(0x40), 5);
    mem.tick(6);
    EXPECT_FALSE(mem.idle()); // still in flight
    EXPECT_EQ(mem.inflightCount(), 1u);
    mem.tick(7);
    EXPECT_TRUE(mem.idle()); // completed at its ready time
    EXPECT_EQ(mem.inflightCount(), 0u);
    EXPECT_EQ(stats.counterValue("m.writes"), 1u);
    // A store never becomes a bus response.
    EXPECT_FALSE(mem.peekReady(10));
}

TEST(ExternalMemoryTest, StoreBlocksNonPipelinedUntilDone)
{
    ExternalMemory mem(3, false);
    mem.accept(store(0x40), 0);
    EXPECT_FALSE(mem.canAccept());
    mem.tick(2);
    EXPECT_FALSE(mem.canAccept());
    mem.tick(3);
    EXPECT_TRUE(mem.canAccept());
}

TEST(ExternalMemoryTest, AcceptWhileBusyPanics)
{
    ExternalMemory mem(2, false);
    mem.accept(load(0), 0);
    EXPECT_THROW(mem.accept(load(4), 1), PanicError);
}

TEST(ExternalMemoryTest, PopWithNothingReadyPanics)
{
    ExternalMemory mem(1, false);
    EXPECT_THROW(mem.popReady(0), PanicError);
}

TEST(ExternalMemoryTest, ZeroAccessTimeRejected)
{
    EXPECT_THROW(ExternalMemory(0, false), PanicError);
}

TEST(ExternalMemoryTest, StatsCountReadsAndWrites)
{
    ExternalMemory mem(1, true);
    StatGroup stats;
    mem.regStats(stats, "m");
    mem.accept(load(0), 0);
    mem.accept(store(4), 0);
    EXPECT_EQ(stats.counterValue("m.reads"), 1u);
    EXPECT_EQ(stats.counterValue("m.writes"), 1u);
}
