#include "sim/loop_memo.hh"

#include <algorithm>

#include "mem/fpu.hh"

namespace pipesim
{

namespace
{

/**
 * Whether two records drive the timing model the same way: control
 * flow, the kind of memory operation, and, for a load or store, the
 * device address if it is one (with no data cache, a memory address
 * never reaches timing).
 */
bool
sameTiming(const replay::TraceRecord &a, const replay::TraceRecord &b)
{
    const auto device = [](Addr addr) {
        return FpuDevice::contains(addr) ? addr : 0;
    };
    return a.pc == b.pc && a.isPbr == b.isPbr &&
           a.branchTaken == b.branchTaken &&
           a.branchTarget == b.branchTarget &&
           a.hasMemAddr == b.hasMemAddr &&
           a.memIsStore == b.memIsStore &&
           device(a.memAddr) == device(b.memAddr);
}

std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint8_t b : bytes)
        h = (h ^ b) * 0x100000001b3ull;
    return h;
}

std::uint64_t
readU64(const std::vector<std::uint8_t> &p, std::size_t off)
{
    std::uint64_t v = 0;
    for (unsigned i = 0; i < 8; ++i)
        v |= std::uint64_t(p[off + i]) << (8 * i);
    return v;
}

void
writeU64(std::vector<std::uint8_t> &p, std::size_t off, std::uint64_t v)
{
    for (unsigned i = 0; i < 8; ++i)
        p[off + i] = std::uint8_t(v >> (8 * i));
}

/**
 * The payload @p k periods after @p last, where @p prev is the one a
 * period before it: exact fields and data are copied, and every
 * stamp, count and sequence number moves on by k times its step over
 * the last period.  A stamp may only have moved by a whole period or
 * not at all; anything else means the period did not repeat.
 */
std::optional<std::vector<std::uint8_t>>
extrapolate(const LoopMemo::Boundary &prev, const LoopMemo::Boundary &last,
            std::uint64_t k)
{
    if (prev.fields != last.fields ||
        prev.payload.size() != last.payload.size())
        return std::nullopt;
    const Cycle cycles = last.now - prev.now;
    std::vector<std::uint8_t> out = last.payload;
    for (const StateWriter::Field &f : last.fields) {
        const std::uint64_t v1 = readU64(prev.payload, f.offset);
        const std::uint64_t v2 = readU64(last.payload, f.offset);
        const std::uint64_t step = v2 - v1;
        if (f.tag == FieldTag::Stamp && step != 0 && step != cycles)
            return std::nullopt;
        writeU64(out, f.offset, v2 + k * step);
    }
    return out;
}

} // namespace

bool
LoopMemo::boundary(std::size_t cursor)
{
    const replay::TraceRecord &r = rec(cursor - 1);
    if (!r.isPbr || !r.branchTaken || r.branchTarget > r.pc)
        return false;
    bool periodic = false;
    for (std::size_t p = 1; p <= _cursors.size() && !periodic; ++p) {
        const std::size_t period = cursor - _cursors[_cursors.size() - p];
        periodic = cursor >= 2 * period &&
                   repeatEnd(cursor - period, cursor, period) == cursor;
    }
    _cursors.push_back(cursor);
    if (_cursors.size() > maxBoundaries / 2)
        _cursors.pop_front();
    return periodic;
}

std::size_t
LoopMemo::repeatEnd(std::size_t from, std::size_t to,
                    std::size_t period) const
{
    std::size_t t = from;
    while (t < to && sameTiming(rec(t), rec(t - period)))
        ++t;
    return t;
}

std::optional<std::vector<std::uint8_t>>
LoopMemo::offer(Boundary b, std::size_t recordCap, Cycle cycleCap)
{
    b.hash = fnv1a(b.key);
    const auto sameKey = [&b](const Boundary &o) {
        return o.hash == b.hash && o.key == b.key;
    };
    const std::size_t lastRecord =
        std::min(recordCap, _trace.records.size());
    // Newest first: the shortest period that repeats.
    for (auto j = _keyed.rbegin(); j != _keyed.rend(); ++j) {
        if (!sameKey(*j))
            continue;
        const std::size_t period = b.cursor - j->cursor;
        const Cycle cycles = b.now - j->now;
        // The key must also have held one period earlier: a single
        // repeat leaves state older than the period (a stamp or an
        // occupancy run from before the loop) unaccounted for.
        const auto first = std::find_if(
            j + 1, _keyed.rend(), [&](const Boundary &o) {
                return o.cursor + period == j->cursor &&
                       o.now + cycles == j->now && sameKey(o);
            });
        if (first == _keyed.rend())
            continue;
        const std::uint64_t kMax =
            std::min<std::uint64_t>(lastRecord > b.cursor
                                        ? (lastRecord - b.cursor) / period
                                        : 0,
                                    (cycleCap - b.now) / cycles);
        // Both observed periods ran the same records, and so must the
        // k skipped ones.
        const std::size_t end =
            repeatEnd(j->cursor, b.cursor + kMax * period, period);
        if (end < b.cursor)
            continue;
        const std::uint64_t k = (end - b.cursor) / period;
        if (k == 0)
            break;
        auto next = extrapolate(*j, b, k);
        if (!next)
            break;
        _keyed.clear();
        _cursors.clear();
        return next;
    }
    _keyed.push_back(std::move(b));
    if (_keyed.size() > maxBoundaries)
        _keyed.pop_front();
    return std::nullopt;
}

} // namespace pipesim
