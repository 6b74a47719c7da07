/**
 * @file
 * Lightweight statistics infrastructure.
 *
 * A StatGroup owns a set of named scalar counters and distributions.
 * Components register their statistics against a group so that the
 * simulator can dump a complete, ordered report after a run.  This is
 * a deliberately small subset of what gem5's stats package offers:
 * scalars, formulas evaluated at dump time, and fixed-bucket
 * histograms, which is all this study needs.
 */

#ifndef PIPESIM_COMMON_STATS_HH
#define PIPESIM_COMMON_STATS_HH

#include <algorithm>
#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

namespace pipesim
{

/** A named monotonically growing (or explicitly set) counter. */
class Counter
{
  public:
    Counter() = default;

    Counter &operator++() { ++_value; return *this; }
    Counter &operator+=(std::uint64_t n) { _value += n; return *this; }
    void set(std::uint64_t v) { _value = v; }
    void reset() { _value = 0; }

    std::uint64_t value() const { return _value; }

  private:
    std::uint64_t _value = 0;
};

/**
 * A histogram with fixed-width buckets plus an overflow bucket.
 */
class Histogram
{
  public:
    /**
     * @param bucket_width Width of each bucket (>= 1).
     * @param num_buckets  Number of regular buckets (>= 1).
     */
    Histogram(std::uint64_t bucket_width = 1, unsigned num_buckets = 16);

    /** Record one sample. */
    void
    sample(std::uint64_t value)
    {
        const std::size_t idx = std::min<std::size_t>(
            value / _bucketWidth, _buckets.size() - 1);
        ++_buckets[idx];
        ++_count;
        _sum += value;
        if (_count == 1) {
            _min = _max = value;
        } else {
            _min = std::min(_min, value);
            _max = std::max(_max, value);
        }
    }

    void reset();

    std::uint64_t count() const { return _count; }
    std::uint64_t sum() const { return _sum; }
    std::uint64_t min() const { return _min; }
    std::uint64_t max() const { return _max; }
    double mean() const;

    /** Bucket contents; the final entry is the overflow bucket. */
    const std::vector<std::uint64_t> &buckets() const { return _buckets; }
    std::uint64_t bucketWidth() const { return _bucketWidth; }

  private:
    std::uint64_t _bucketWidth;
    std::vector<std::uint64_t> _buckets;
    std::uint64_t _count = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _min = 0;
    std::uint64_t _max = 0;
};

/**
 * A registry of named statistics belonging to one component tree.
 *
 * Names are hierarchical by convention ("fetch.icache.misses").
 * Registration stores pointers; the registered objects must outlive
 * the group.
 */
class StatGroup
{
  public:
    /** Register a counter under @p name. Names must be unique. */
    void regCounter(const std::string &name, Counter *c,
                    const std::string &desc = "");

    /** Register a histogram under @p name. */
    void regHistogram(const std::string &name, Histogram *h,
                      const std::string &desc = "");

    /**
     * Register a formula: a callable evaluated at dump time
     * (e.g. a miss ratio derived from two counters).
     */
    void regFormula(const std::string &name, std::function<double()> f,
                    const std::string &desc = "");

    /** Reset every registered counter and histogram. */
    void resetAll();

    /** @return the value of the counter registered under @p name. */
    std::uint64_t counterValue(const std::string &name) const;

    /** @return the value of the formula registered under @p name. */
    double formulaValue(const std::string &name) const;

    /** @return true if a counter with @p name exists. */
    bool hasCounter(const std::string &name) const;

    /** Render a human-readable report of all statistics. */
    std::string dump() const;

    /** All registered counter names, in registration order. */
    std::vector<std::string> counterNames() const;

    /** All registered formula names, in registration order. */
    std::vector<std::string> formulaNames() const;

  private:
    struct CounterEntry
    {
        Counter *counter;
        std::string desc;
    };
    struct HistEntry
    {
        Histogram *hist;
        std::string desc;
    };
    struct FormulaEntry
    {
        std::function<double()> fn;
        std::string desc;
    };

    std::vector<std::string> _order;
    std::map<std::string, CounterEntry> _counters;
    std::map<std::string, HistEntry> _hists;
    std::map<std::string, FormulaEntry> _formulas;
};

} // namespace pipesim

#endif // PIPESIM_COMMON_STATS_HH
