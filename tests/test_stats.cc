#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "common/state_io.hh"
#include "common/stats.hh"
#include "common/log.hh"

using namespace pipesim;

TEST(Counter, IncrementAndAdd)
{
    Counter c;
    EXPECT_EQ(c.value(), 0u);
    ++c;
    EXPECT_EQ(c.value(), 1u);
    c += 10;
    EXPECT_EQ(c.value(), 11u);
    c.reset();
    EXPECT_EQ(c.value(), 0u);
    c.set(99);
    EXPECT_EQ(c.value(), 99u);
}

TEST(HistogramTest, BasicSampling)
{
    Histogram h(10, 4);
    h.sample(0);
    h.sample(5);
    h.sample(15);
    h.sample(39);
    h.sample(100); // overflow bucket
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.min(), 0u);
    EXPECT_EQ(h.max(), 100u);
    EXPECT_EQ(h.buckets()[0], 2u);
    EXPECT_EQ(h.buckets()[1], 1u);
    EXPECT_EQ(h.buckets()[3], 1u);
    EXPECT_EQ(h.buckets()[4], 1u); // overflow
    EXPECT_DOUBLE_EQ(h.mean(), (0 + 5 + 15 + 39 + 100) / 5.0);
}

TEST(HistogramTest, ResetClearsEverything)
{
    Histogram h(1, 4);
    h.sample(3);
    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    EXPECT_DOUBLE_EQ(h.mean(), 0.0);
    for (auto b : h.buckets())
        EXPECT_EQ(b, 0u);
}

TEST(HistogramTest, RunsReadLikeSingleSamples)
{
    // Run-length encoded samples, repeat() and a checkpoint round
    // trip (open run included) read exactly like one sample at a time:
    // 3 x5, 0 x2, 9 x4, 1 x5, 3 x2.
    Histogram h(2, 3);
    const std::vector<std::pair<std::uint64_t, std::uint64_t>> seq = {
        {3, 1}, {3, 4}, {0, 2}, {9, 1}, {9, 3}, {1, 5}, {3, 2}};
    for (const auto &[value, n] : seq) {
        h.sample(value);
        h.repeat(n - 1);
    }
    StateWriter w;
    h.saveState(w);
    const std::vector<std::uint8_t> bytes = w.take();
    Histogram restored(2, 3);
    StateReader r(bytes, "histogram");
    restored.restoreState(r);
    r.expectEnd();
    for (const Histogram *read : {&h, &restored}) {
        EXPECT_EQ(read->count(), 18u);
        EXPECT_EQ(read->sum(), 62u);
        EXPECT_EQ(read->min(), 0u);
        EXPECT_EQ(read->max(), 9u);
        EXPECT_EQ(read->buckets(),
                  (std::vector<std::uint64_t>{7, 7, 0, 4}));
        EXPECT_DOUBLE_EQ(read->mean(), 62.0 / 18.0);
    }
    Histogram otherShape(2, 4);
    StateReader mismatched(bytes, "histogram");
    EXPECT_THROW(otherShape.restoreState(mismatched), FatalError);
}

TEST(HistogramTest, RejectsBadParameters)
{
    EXPECT_THROW(Histogram(0, 4), PanicError);
    EXPECT_THROW(Histogram(1, 0), PanicError);
}

TEST(StatGroupTest, CounterRegistrationAndLookup)
{
    StatGroup g;
    Counter a, b;
    g.regCounter("x.a", &a, "counts a");
    g.regCounter("x.b", &b);
    ++a;
    ++a;
    EXPECT_EQ(g.counterValue("x.a"), 2u);
    EXPECT_EQ(g.counterValue("x.b"), 0u);
    EXPECT_TRUE(g.hasCounter("x.a"));
    EXPECT_FALSE(g.hasCounter("x.c"));
}

TEST(StatGroupTest, DuplicateNamesPanic)
{
    StatGroup g;
    Counter a, b;
    g.regCounter("dup", &a);
    EXPECT_THROW(g.regCounter("dup", &b), PanicError);
    Histogram h;
    EXPECT_THROW(g.regHistogram("dup", &h), PanicError);
    EXPECT_THROW(g.regFormula("dup", [] { return 0.0; }), PanicError);
}

TEST(StatGroupTest, UnknownCounterPanics)
{
    StatGroup g;
    EXPECT_THROW(g.counterValue("nope"), PanicError);
}

TEST(StatGroupTest, FormulaEvaluatesAtReadTime)
{
    StatGroup g;
    Counter hits, total;
    g.regCounter("hits", &hits);
    g.regCounter("total", &total);
    g.regFormula("ratio", [&] {
        return total.value() ? double(hits.value()) / total.value() : 0.0;
    });
    EXPECT_DOUBLE_EQ(g.formulaValue("ratio"), 0.0);
    hits += 3;
    total += 4;
    EXPECT_DOUBLE_EQ(g.formulaValue("ratio"), 0.75);
}

TEST(StatGroupTest, ResetAllResetsCountersAndHistograms)
{
    StatGroup g;
    Counter c;
    Histogram h;
    g.regCounter("c", &c);
    g.regHistogram("h", &h);
    c += 5;
    h.sample(2);
    g.resetAll();
    EXPECT_EQ(c.value(), 0u);
    EXPECT_EQ(h.count(), 0u);
}

TEST(StatGroupTest, DumpContainsNamesAndValues)
{
    StatGroup g;
    Counter c;
    c += 42;
    g.regCounter("my.counter", &c, "the answer");
    const std::string dump = g.dump();
    EXPECT_NE(dump.find("my.counter"), std::string::npos);
    EXPECT_NE(dump.find("42"), std::string::npos);
    EXPECT_NE(dump.find("the answer"), std::string::npos);
}

TEST(StatGroupTest, CounterNamesPreserveOrder)
{
    StatGroup g;
    Counter a, b, c;
    g.regCounter("z", &a);
    g.regCounter("a", &b);
    g.regCounter("m", &c);
    const auto names = g.counterNames();
    ASSERT_EQ(names.size(), 3u);
    EXPECT_EQ(names[0], "z");
    EXPECT_EQ(names[1], "a");
    EXPECT_EQ(names[2], "m");
}

TEST(StatGroupTest, CounterValuesFollowCounterNames)
{
    StatGroup g;
    Counter a, b, c;
    Histogram h;
    g.regCounter("z", &a);
    g.regHistogram("h", &h);
    g.regCounter("a", &b);
    g.regFormula("f", [] { return 1.0; });
    g.regCounter("m", &c);
    a.set(3);
    b.set(1);
    c.set(2);
    std::vector<std::uint64_t> values = {9, 9, 9, 9, 9};
    g.counterValues(values);
    const auto names = g.counterNames();
    ASSERT_EQ(values.size(), names.size());
    for (std::size_t i = 0; i < names.size(); ++i)
        EXPECT_EQ(values[i], g.counterValue(names[i])) << names[i];
}
