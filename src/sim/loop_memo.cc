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
 * Whether the period from @p prev to @p last repeats in its fields: the
 * same ones, and every stamp moved by a whole period or not at all.
 */
bool
extrapolable(const LoopMemo::Boundary &prev, const LoopMemo::Boundary &last)
{
    if (prev.fields != last.fields ||
        prev.payload.size() != last.payload.size())
        return false;
    const Cycle cycles = last.now - prev.now;
    for (const StateWriter::Field &f : last.fields) {
        const std::uint64_t step =
            readU64(last.payload, f.offset) - readU64(prev.payload, f.offset);
        if (f.tag == FieldTag::Stamp && step != 0 && step != cycles)
            return false;
    }
    return true;
}

/**
 * The payload @p k periods after @p last, where @p prev is the one a
 * period before it (extrapolable): exact fields and data are copied,
 * and every stamp, count and sequence number moves on by k times its
 * step over the last period.
 */
std::vector<std::uint8_t>
extrapolate(const LoopMemo::Boundary &prev, const LoopMemo::Boundary &last,
            std::uint64_t k)
{
    std::vector<std::uint8_t> out = last.payload;
    for (const StateWriter::Field &f : last.fields) {
        const std::uint64_t v2 = readU64(last.payload, f.offset);
        writeU64(out, f.offset,
                 v2 + k * (v2 - readU64(prev.payload, f.offset)));
    }
    return out;
}

} // namespace

bool
LoopMemo::boundary(std::size_t cursor)
{
    const replay::TraceRecord &r = *_records.at(cursor - 1);
    if (!r.isPbr || !r.branchTaken || r.branchTarget > r.pc)
        return false;
    bool periodic = false;
    const std::size_t periods = std::min(_cursors.size(), maxBoundaries / 2);
    for (std::size_t p = 1; p <= periods && !periodic; ++p) {
        const std::size_t period = cursor - _cursors[_cursors.size() - p];
        periodic = cursor >= 2 * period &&
                   repeatEnd(cursor - period, cursor, period) == cursor;
    }
    _cursors.push_back(cursor);
    if (_cursors.size() > maxBoundaries)
        _cursors.pop_front();
    keep();
    return periodic;
}

void
LoopMemo::keep()
{
    // A period of up to maxBoundaries / 2 boundaries compares records
    // as far back as twice that many; offer() compares the keyed ones.
    std::size_t oldest = _cursors.empty() ? ~std::size_t(0) : _cursors.front();
    if (!_keyed.empty())
        oldest = std::min(oldest, _keyed.front().cursor);
    _records.keepFrom(oldest);
}

std::size_t
LoopMemo::repeatEnd(std::size_t from, std::size_t to, std::size_t period)
{
    std::size_t t = from;
    if (const replay::Trace *trace = _records.trace()) {
        // The memo's hot loop: a trace's vector is read directly.
        const std::vector<replay::TraceRecord> &r = trace->records;
        for (to = std::min(to, r.size());
             t < to && sameTiming(r[t], r[t - period]); ++t) {
        }
        return t;
    }
    for (; t < to; ++t) {
        // Ahead first: filling the window may move it.
        const replay::TraceRecord *ahead = _records.at(t);
        const replay::TraceRecord *behind = _records.at(t - period);
        if (!ahead || !behind || !sameTiming(*ahead, *behind))
            break;
    }
    return t;
}

std::optional<std::vector<std::uint8_t>>
LoopMemo::offer(Boundary b, std::size_t recordCap, Cycle cycleCap,
                std::size_t keepBehind)
{
    b.hash = fnv1a(b.key);
    const auto sameKey = [&b](const Boundary &o) {
        return o.hash == b.hash && o.key == b.key;
    };
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
        // Both observed periods ran the same records...
        if (repeatEnd(j->cursor, b.cursor, period) < b.cursor)
            continue;
        // Checked before reading ahead: it does not depend on k.
        if (!extrapolable(*j, b))
            break;
        // ...and so must the k skipped ones, within the caps.  A trace
        // is read in place; an executor's window confirms them a
        // period at a time, releasing what is behind each one.
        const std::uint64_t kMax = std::min<std::uint64_t>(
            recordCap > b.cursor ? (recordCap - b.cursor) / period : 0,
            (cycleCap - b.now) / cycles);
        std::uint64_t k = 0;
        if (_records.trace()) {
            k = (repeatEnd(b.cursor, b.cursor + kMax * period, period) -
                 b.cursor) / period;
        }
        for (std::size_t from = b.cursor; !_records.trace() && k < kMax;
             ++k, from += period) {
            if (repeatEnd(from, from + period, period) < from + period)
                break;
            _records.consume(from);
            _records.keepFrom(from + period - std::max(period, keepBehind));
        }
        if (k == 0)
            break;
        auto next = extrapolate(*j, b, k);
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
