#include "mem/fpu.hh"

#include <algorithm>
#include <bit>

#include "common/log.hh"

namespace pipesim
{

FpuDevice::FpuDevice(Cycle latency) : _latency(latency)
{
    PIPESIM_ASSERT(latency >= 1, "FPU latency must be at least 1 cycle");
}

FpuOp
FpuDevice::kindOf(Addr addr)
{
    PIPESIM_ASSERT(contains(addr), "address ", addr, " not in FPU window");
    return FpuOp((addr - baseAddr) / kindStride);
}

unsigned
FpuDevice::offsetOf(Addr addr)
{
    return (addr - baseAddr) % kindStride;
}

Word
FpuDevice::compute(FpuOp kind, Word a, Word b)
{
    const float x = std::bit_cast<float>(a);
    const float y = std::bit_cast<float>(b);
    switch (kind) {
      case FpuOp::Add: return std::bit_cast<Word>(x + y);
      case FpuOp::Sub: return std::bit_cast<Word>(x - y);
      case FpuOp::Mul: return std::bit_cast<Word>(x * y);
      case FpuOp::Div: return std::bit_cast<Word>(x / y);
      default: panic("bad FPU op");
    }
}

void
FpuDevice::store(Addr addr, Word data, Cycle now)
{
    const FpuOp kind = kindOf(addr);
    const unsigned off = offsetOf(addr);
    const unsigned k = unsigned(kind);
    if (off == 0) {
        _latchA[k] = data;
    } else if (off == 4) {
        _results[k].push_back(
            Result{now + _latency, compute(kind, _latchA[k], data)});
        ++_opsStarted;
    } else {
        fatal("store to FPU result address ", addr);
    }
}

void
FpuDevice::queueRead(const MemRequest &req, Cycle now)
{
    (void)now;
    const unsigned off = offsetOf(req.addr);
    if (off != 8)
        fatal("load from FPU operand address ", req.addr);
    _reads[unsigned(kindOf(req.addr))].push_back(PendingRead{req});
    ++_pendingReads;
}

std::optional<FpuDevice::ReadyRead>
FpuDevice::peekReady(Cycle now) const
{
    // Among kinds with both a pending read and a ready result, return
    // the one whose read is oldest in data-sequence order, so the
    // caller can enforce in-order LDQ fill.
    if (_pendingReads == 0)
        return std::nullopt;
    const PendingRead *best = nullptr;
    const Result *best_result = nullptr;
    for (unsigned k = 0; k < unsigned(FpuOp::NumOps); ++k) {
        if (_reads[k].empty() || _results[k].empty())
            continue;
        if (_results[k].front().readyAt > now)
            continue;
        const PendingRead &pr = _reads[k].front();
        if (!best || pr.req.dataSeq < best->req.dataSeq) {
            best = &pr;
            best_result = &_results[k].front();
        }
    }
    if (!best)
        return std::nullopt;
    return ReadyRead{&best->req, best_result->value};
}

void
FpuDevice::popReady(Cycle now)
{
    auto ready = peekReady(now);
    PIPESIM_ASSERT(ready, "popReady with no ready FPU response");
    const unsigned k = unsigned(kindOf(ready->req->addr));
    _reads[k].pop_front();
    _results[k].pop_front();
    --_pendingReads;
    ++_resultsReturned;
}

Cycle
FpuDevice::nextEvent(Cycle last) const
{
    Cycle next = neverCycle;
    for (const auto &kind : _results)
        if (!kind.empty() && kind.front().readyAt > last)
            next = std::min(next, kind.front().readyAt);
    return next;
}

void
FpuDevice::regStats(StatGroup &stats, const std::string &prefix)
{
    stats.regCounter(prefix + ".ops_started", &_opsStarted,
                     "FPU operations started");
    stats.regCounter(prefix + ".results_returned", &_resultsReturned,
                     "FPU results returned over the input bus");
}

} // namespace pipesim
