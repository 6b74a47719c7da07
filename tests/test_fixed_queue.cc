#include <gtest/gtest.h>

#include "common/log.hh"

#include <string>

#include "queue/fixed_queue.hh"

using namespace pipesim;

TEST(FixedQueue, FifoOrder)
{
    FixedQueue<int> q(4);
    q.push(1);
    q.push(2);
    q.push(3);
    EXPECT_EQ(q.pop(), 1);
    EXPECT_EQ(q.pop(), 2);
    q.push(4);
    EXPECT_EQ(q.pop(), 3);
    EXPECT_EQ(q.pop(), 4);
    EXPECT_TRUE(q.empty());
}

TEST(FixedQueue, CapacityAndFull)
{
    FixedQueue<int> q(2);
    EXPECT_EQ(q.capacity(), 2u);
    EXPECT_EQ(q.freeSlots(), 2u);
    q.push(1);
    EXPECT_FALSE(q.full());
    q.push(2);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.freeSlots(), 0u);
}

TEST(FixedQueue, OverflowPanics)
{
    FixedQueue<int> q(1);
    q.push(1);
    EXPECT_THROW(q.push(2), PanicError);
}

TEST(FixedQueue, UnderflowPanics)
{
    FixedQueue<int> q(1);
    EXPECT_THROW(q.pop(), PanicError);
    EXPECT_THROW(q.front(), PanicError);
}

TEST(FixedQueue, FrontDoesNotPop)
{
    FixedQueue<std::string> q(2);
    q.push("a");
    EXPECT_EQ(q.front(), "a");
    EXPECT_EQ(q.size(), 1u);
    EXPECT_EQ(q.pop(), "a");
}

TEST(FixedQueue, RandomAccessFromHead)
{
    FixedQueue<int> q(4);
    q.push(10);
    q.push(20);
    q.push(30);
    EXPECT_EQ(q.at(0), 10);
    EXPECT_EQ(q.at(2), 30);
    EXPECT_THROW(q.at(3), PanicError);
}

TEST(FixedQueue, ClearEmpties)
{
    FixedQueue<int> q(4);
    q.push(1);
    q.push(2);
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.size(), 0u);
}

TEST(FixedQueue, ZeroCapacityRejected)
{
    EXPECT_THROW(FixedQueue<int>(0), PanicError);
}

TEST(FixedQueue, WrapsAroundItsStorage)
{
    // Many more pushes than slots: the ring's head and tail wrap.
    FixedQueue<int> q(3);
    int next_in = 0;
    int next_out = 0;
    for (int round = 0; round < 10; ++round) {
        while (!q.full())
            q.push(next_in++);
        EXPECT_EQ(q.size(), 3u);
        EXPECT_THROW(q.push(-1), PanicError);
        for (int i = 0; i < 2; ++i)
            EXPECT_EQ(q.pop(), next_out++);
    }
    while (!q.empty())
        EXPECT_EQ(q.pop(), next_out++);
    EXPECT_EQ(next_out, next_in);
    EXPECT_THROW(q.pop(), PanicError);
}

TEST(FixedQueue, RandomAccessAcrossTheSeam)
{
    FixedQueue<int> q(4);
    for (int v : {0, 1, 2, 3})
        q.push(v);
    q.pop();
    q.pop();
    q.push(4);
    q.push(5); // storage now holds 4 5 2 3: the head is past the seam
    for (std::size_t i = 0; i < 4; ++i)
        EXPECT_EQ(q.at(i), int(i) + 2);
    EXPECT_EQ(q.front(), 2);
    EXPECT_THROW(q.at(4), PanicError);
}

TEST(FixedQueue, ClearThenReuse)
{
    FixedQueue<std::string> q(3);
    q.push("a");
    q.push("b");
    q.pop();
    q.push("c");
    q.clear();
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.freeSlots(), 3u);
    EXPECT_THROW(q.front(), PanicError);
    for (const char *v : {"x", "y", "z"})
        q.push(v);
    EXPECT_TRUE(q.full());
    EXPECT_EQ(q.at(0), "x");
    EXPECT_EQ(q.at(2), "z");
    EXPECT_EQ(q.pop(), "x");
    q.push("w");
    EXPECT_EQ(q.at(2), "w");
}
