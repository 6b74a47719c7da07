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

#include "common/state_io.hh"

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
 *
 * Samples are run-length encoded: a sample equal to the previous one
 * only lengthens the open run, which every accessor folds in.  A
 * per-cycle sample of a slowly changing value (queue occupancy) thus
 * costs a compare and an increment, and repeat() records a run of
 * identical cycles at once.  The readout is exactly that of the
 * samples one by one.
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
        if (_runLen != 0 && value == _runValue) {
            ++_runLen;
            return;
        }
        closeRun();
        _runValue = value;
        _runLen = 1;
    }

    /** Record the most recent sample @p n more times. */
    void repeat(std::uint64_t n);

    void reset();

    std::uint64_t count() const { return _count + _runLen; }
    std::uint64_t sum() const { return _sum + _runValue * _runLen; }
    std::uint64_t min() const;
    std::uint64_t max() const;
    double mean() const;

    /** Bucket contents; the final entry is the overflow bucket. */
    std::vector<std::uint64_t> buckets() const;
    std::uint64_t bucketWidth() const { return _bucketWidth; }

    /** Serialize every sample so far, the open run included. */
    void saveState(StateWriter &w) const;

    /** Restore saveState() output into a histogram of equal shape. */
    void restoreState(StateReader &r);

  private:
    std::size_t
    bucketOf(std::uint64_t value) const
    {
        return std::min<std::size_t>(value / _bucketWidth,
                                     _buckets.size() - 1);
    }

    /** Fold the open run into the closed totals. */
    void closeRun();

    std::uint64_t _bucketWidth;
    std::vector<std::uint64_t> _buckets; //!< closed runs only
    std::uint64_t _count = 0;
    std::uint64_t _sum = 0;
    std::uint64_t _min = 0;
    std::uint64_t _max = 0;
    std::uint64_t _runValue = 0; //!< value of the open run
    std::uint64_t _runLen = 0;   //!< its length (0: no open run)
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
