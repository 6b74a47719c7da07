#include <gtest/gtest.h>

#include "common/log.hh"

#include <bit>
#include <cmath>

#include "mem/fpu.hh"

using namespace pipesim;

namespace
{

Word f2w(float f) { return std::bit_cast<Word>(f); }
float w2f(Word w) { return std::bit_cast<float>(w); }

MemRequest
readReq(FpuOp op, std::uint64_t seq)
{
    MemRequest req;
    req.addr = FpuDevice::opResult(op);
    req.bytes = wordBytes;
    req.cls = ReqClass::Data;
    req.dataSeq = seq;
    return req;
}

} // namespace

TEST(FpuAddressMap, WindowLayout)
{
    EXPECT_TRUE(FpuDevice::contains(FpuDevice::baseAddr));
    EXPECT_FALSE(FpuDevice::contains(FpuDevice::baseAddr - 4));
    EXPECT_FALSE(FpuDevice::contains(FpuDevice::baseAddr + 4 * 16));
    EXPECT_EQ(FpuDevice::opB(FpuOp::Add), FpuDevice::opA(FpuOp::Add) + 4);
    EXPECT_EQ(FpuDevice::opResult(FpuOp::Mul),
              FpuDevice::opA(FpuOp::Mul) + 8);
    // The window sits below 32 KiB so r0-relative addressing reaches it.
    EXPECT_LT(FpuDevice::baseAddr + 4 * 16, 0x8000u);
}

TEST(FpuDeviceTest, MultiplyAfterLatency)
{
    FpuDevice fpu(4);
    fpu.store(FpuDevice::opA(FpuOp::Mul), f2w(2.0f), 10);
    fpu.store(FpuDevice::opB(FpuOp::Mul), f2w(3.5f), 11);
    fpu.queueRead(readReq(FpuOp::Mul, 0), 11);
    EXPECT_FALSE(fpu.peekReady(14)); // 11 + 4 = 15
    auto ready = fpu.peekReady(15);
    ASSERT_TRUE(ready);
    EXPECT_FLOAT_EQ(w2f(ready->value), 7.0f);
    fpu.popReady(15);
    EXPECT_EQ(fpu.pendingReads(), 0u);
}

TEST(FpuDeviceTest, AllFourOperations)
{
    FpuDevice fpu(1);
    struct Case { FpuOp op; float a, b, expect; };
    const Case cases[] = {
        {FpuOp::Add, 1.5f, 2.25f, 3.75f},
        {FpuOp::Sub, 1.5f, 2.25f, -0.75f},
        {FpuOp::Mul, 1.5f, 2.0f, 3.0f},
        {FpuOp::Div, 3.0f, 2.0f, 1.5f},
    };
    std::uint64_t seq = 0;
    for (const Case &c : cases) {
        fpu.store(FpuDevice::opA(c.op), f2w(c.a), 0);
        fpu.store(FpuDevice::opB(c.op), f2w(c.b), 0);
        fpu.queueRead(readReq(c.op, seq++), 0);
        auto ready = fpu.peekReady(1);
        ASSERT_TRUE(ready);
        EXPECT_FLOAT_EQ(w2f(ready->value), c.expect);
        fpu.popReady(1);
    }
}

TEST(FpuDeviceTest, ALatchPersistsAcrossOperations)
{
    FpuDevice fpu(1);
    fpu.store(FpuDevice::opA(FpuOp::Mul), f2w(10.0f), 0);
    fpu.store(FpuDevice::opB(FpuOp::Mul), f2w(2.0f), 0);
    // Second op reuses the A latch.
    fpu.store(FpuDevice::opB(FpuOp::Mul), f2w(3.0f), 0);
    fpu.queueRead(readReq(FpuOp::Mul, 0), 0);
    fpu.queueRead(readReq(FpuOp::Mul, 1), 0);
    auto r0 = fpu.peekReady(1);
    ASSERT_TRUE(r0);
    EXPECT_FLOAT_EQ(w2f(r0->value), 20.0f);
    fpu.popReady(1);
    auto r1 = fpu.peekReady(1);
    ASSERT_TRUE(r1);
    EXPECT_FLOAT_EQ(w2f(r1->value), 30.0f);
}

TEST(FpuDeviceTest, PipelinedSameKindResultsFifo)
{
    FpuDevice fpu(4);
    fpu.store(FpuDevice::opA(FpuOp::Add), f2w(1.0f), 0);
    fpu.store(FpuDevice::opB(FpuOp::Add), f2w(1.0f), 0); // ready at 4
    fpu.store(FpuDevice::opA(FpuOp::Add), f2w(2.0f), 1);
    fpu.store(FpuDevice::opB(FpuOp::Add), f2w(2.0f), 1); // ready at 5
    fpu.queueRead(readReq(FpuOp::Add, 0), 1);
    fpu.queueRead(readReq(FpuOp::Add, 1), 1);
    auto r0 = fpu.peekReady(10);
    ASSERT_TRUE(r0);
    EXPECT_FLOAT_EQ(w2f(r0->value), 2.0f);
    EXPECT_EQ(r0->req->dataSeq, 0u);
    fpu.popReady(10);
    auto r1 = fpu.peekReady(10);
    ASSERT_TRUE(r1);
    EXPECT_FLOAT_EQ(w2f(r1->value), 4.0f);
}

TEST(FpuDeviceTest, ReadBlocksUntilResultReady)
{
    FpuDevice fpu(4);
    // Read queued before the operation even starts.
    fpu.queueRead(readReq(FpuOp::Sub, 0), 0);
    EXPECT_FALSE(fpu.peekReady(100));
    fpu.store(FpuDevice::opA(FpuOp::Sub), f2w(5.0f), 100);
    fpu.store(FpuDevice::opB(FpuOp::Sub), f2w(3.0f), 100);
    EXPECT_FALSE(fpu.peekReady(103));
    auto ready = fpu.peekReady(104);
    ASSERT_TRUE(ready);
    EXPECT_FLOAT_EQ(w2f(ready->value), 2.0f);
}

TEST(FpuDeviceTest, OldestDataSeqWinsAcrossKinds)
{
    FpuDevice fpu(1);
    fpu.store(FpuDevice::opA(FpuOp::Add), f2w(1.0f), 0);
    fpu.store(FpuDevice::opB(FpuOp::Add), f2w(1.0f), 0);
    fpu.store(FpuDevice::opA(FpuOp::Mul), f2w(2.0f), 0);
    fpu.store(FpuDevice::opB(FpuOp::Mul), f2w(2.0f), 0);
    // The mul read is older in program order.
    fpu.queueRead(readReq(FpuOp::Mul, 3), 0);
    fpu.queueRead(readReq(FpuOp::Add, 7), 0);
    auto ready = fpu.peekReady(2);
    ASSERT_TRUE(ready);
    EXPECT_EQ(ready->req->dataSeq, 3u);
}

TEST(FpuDeviceTest, StoreToResultAddressIsFatal)
{
    FpuDevice fpu(1);
    EXPECT_THROW(fpu.store(FpuDevice::opResult(FpuOp::Add), 0, 0),
                 FatalError);
}

TEST(FpuDeviceTest, LoadFromOperandAddressIsFatal)
{
    FpuDevice fpu(1);
    MemRequest req;
    req.addr = FpuDevice::opA(FpuOp::Add);
    EXPECT_THROW(fpu.queueRead(req, 0), FatalError);
}

TEST(FpuDeviceTest, DivisionByZeroGivesInfinity)
{
    FpuDevice fpu(1);
    fpu.store(FpuDevice::opA(FpuOp::Div), f2w(1.0f), 0);
    fpu.store(FpuDevice::opB(FpuOp::Div), f2w(0.0f), 0);
    fpu.queueRead(readReq(FpuOp::Div, 0), 0);
    auto ready = fpu.peekReady(1);
    ASSERT_TRUE(ready);
    EXPECT_TRUE(std::isinf(w2f(ready->value)));
}

TEST(FpuDeviceTest, StatsCountOpsAndReturns)
{
    FpuDevice fpu(1);
    StatGroup stats;
    fpu.regStats(stats, "fpu");
    fpu.store(FpuDevice::opA(FpuOp::Add), f2w(1.0f), 0);
    fpu.store(FpuDevice::opB(FpuOp::Add), f2w(1.0f), 0);
    EXPECT_EQ(stats.counterValue("fpu.ops_started"), 1u);
    fpu.queueRead(readReq(FpuOp::Add, 0), 0);
    fpu.popReady(1);
    EXPECT_EQ(stats.counterValue("fpu.results_returned"), 1u);
}
