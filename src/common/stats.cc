#include "common/stats.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>

#include "common/log.hh"

namespace pipesim
{

Histogram::Histogram(std::uint64_t bucket_width, unsigned num_buckets)
    : _bucketWidth(bucket_width), _buckets(num_buckets + 1, 0)
{
    PIPESIM_ASSERT(bucket_width >= 1, "histogram bucket width must be >= 1");
    PIPESIM_ASSERT(num_buckets >= 1, "histogram needs at least one bucket");
}

void
Histogram::reset()
{
    std::fill(_buckets.begin(), _buckets.end(), 0);
    _count = _sum = _min = _max = 0;
}

double
Histogram::mean() const
{
    return _count ? static_cast<double>(_sum) / _count : 0.0;
}

void
StatGroup::regCounter(const std::string &name, Counter *c,
                      const std::string &desc)
{
    PIPESIM_ASSERT(c, "null counter registered as '", name, "'");
    if (_counters.count(name) || _hists.count(name) || _formulas.count(name))
        panic("duplicate stat name '", name, "'");
    _counters.emplace(name, CounterEntry{c, desc});
    _order.push_back(name);
}

void
StatGroup::regHistogram(const std::string &name, Histogram *h,
                        const std::string &desc)
{
    PIPESIM_ASSERT(h, "null histogram registered as '", name, "'");
    if (_counters.count(name) || _hists.count(name) || _formulas.count(name))
        panic("duplicate stat name '", name, "'");
    _hists.emplace(name, HistEntry{h, desc});
    _order.push_back(name);
}

void
StatGroup::regFormula(const std::string &name, std::function<double()> f,
                      const std::string &desc)
{
    PIPESIM_ASSERT(f, "null formula registered as '", name, "'");
    if (_counters.count(name) || _hists.count(name) || _formulas.count(name))
        panic("duplicate stat name '", name, "'");
    _formulas.emplace(name, FormulaEntry{std::move(f), desc});
    _order.push_back(name);
}

void
StatGroup::resetAll()
{
    for (auto &[name, entry] : _counters)
        entry.counter->reset();
    for (auto &[name, entry] : _hists)
        entry.hist->reset();
}

std::uint64_t
StatGroup::counterValue(const std::string &name) const
{
    auto it = _counters.find(name);
    if (it == _counters.end())
        panic("unknown counter '", name, "'");
    return it->second.counter->value();
}

double
StatGroup::formulaValue(const std::string &name) const
{
    auto it = _formulas.find(name);
    if (it == _formulas.end())
        panic("unknown formula '", name, "'");
    return it->second.fn();
}

bool
StatGroup::hasCounter(const std::string &name) const
{
    return _counters.count(name) != 0;
}

std::string
StatGroup::dump() const
{
    std::ostringstream os;
    for (const auto &name : _order) {
        if (auto it = _counters.find(name); it != _counters.end()) {
            os << std::left << std::setw(40) << name
               << std::right << std::setw(14) << it->second.counter->value();
            if (!it->second.desc.empty())
                os << "  # " << it->second.desc;
            os << "\n";
        } else if (auto hit = _hists.find(name); hit != _hists.end()) {
            const Histogram &h = *hit->second.hist;
            os << std::left << std::setw(40) << name
               << " count=" << h.count() << " mean=" << std::fixed
               << std::setprecision(2) << h.mean() << " min=" << h.min()
               << " max=" << h.max();
            if (!hit->second.desc.empty())
                os << "  # " << hit->second.desc;
            os << "\n";
        } else if (auto fit = _formulas.find(name); fit != _formulas.end()) {
            os << std::left << std::setw(40) << name
               << std::right << std::setw(14) << std::fixed
               << std::setprecision(4) << fit->second.fn();
            if (!fit->second.desc.empty())
                os << "  # " << fit->second.desc;
            os << "\n";
        }
    }
    return os.str();
}

std::vector<std::string>
StatGroup::counterNames() const
{
    std::vector<std::string> names;
    for (const auto &name : _order)
        if (_counters.count(name))
            names.push_back(name);
    return names;
}

std::vector<std::string>
StatGroup::formulaNames() const
{
    std::vector<std::string> names;
    for (const auto &name : _order)
        if (_formulas.count(name))
            names.push_back(name);
    return names;
}

} // namespace pipesim
