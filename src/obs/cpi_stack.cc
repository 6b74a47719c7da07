#include "obs/cpi_stack.hh"

#include <sstream>

#include "common/strutil.hh"

namespace pipesim::obs
{

std::uint64_t
CpiStack::component(CycleClass cls) const
{
    return _components[unsigned(cls)].value();
}

std::uint64_t
CpiStack::accountedCycles() const
{
    return totalTicks() - component(CycleClass::Drain);
}

std::uint64_t
CpiStack::totalTicks() const
{
    std::uint64_t sum = 0;
    for (const Counter &c : _components)
        sum += c.value();
    return sum;
}

void
CpiStack::regStats(StatGroup &stats, const std::string &prefix)
{
    static const char *descs[numCycleClasses] = {
        "cycles an instruction issued",
        "cycles the frontend had nothing to issue",
        "cycles issue waited for load data (r7)",
        "cycles issue blocked on a full architectural queue",
        "cycles issue blocked on a busy register",
        "fetch-starve cycles caused by memory-bus contention",
        "cycles draining queues at/after HALT",
    };
    for (unsigned i = 0; i < numCycleClasses; ++i)
        stats.regCounter(prefix + "." + cycleClassName(CycleClass(i)),
                         &_components[i], descs[i]);
}

std::string
CpiStack::table() const
{
    const std::uint64_t total = totalTicks();
    const double denom = total ? double(total) : 1.0;
    std::ostringstream os;
    os << "CPI stack (cycles, % of all simulated ticks):\n";
    for (unsigned i = 0; i < numCycleClasses; ++i) {
        const std::uint64_t v = _components[i].value();
        os << format("  %-16s %12llu  %5.1f%%\n",
                     cycleClassName(CycleClass(i)),
                     static_cast<unsigned long long>(v),
                     100.0 * double(v) / denom);
    }
    os << format("  %-16s %12llu\n", "total",
                 static_cast<unsigned long long>(total));
    return os.str();
}

} // namespace pipesim::obs
