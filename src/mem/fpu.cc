#include "mem/fpu.hh"

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

void
FpuDevice::store(Addr addr, Word data, Cycle now)
{
    const FpuOp kind = kindOf(addr);
    const unsigned off = offsetOf(addr);
    const unsigned k = unsigned(kind);
    if (off == 0) {
        _latchA[k] = data;
    } else if (off == 4) {
        const float a = std::bit_cast<float>(_latchA[k]);
        const float b = std::bit_cast<float>(data);
        float r = 0;
        switch (kind) {
          case FpuOp::Add: r = a + b; break;
          case FpuOp::Sub: r = a - b; break;
          case FpuOp::Mul: r = a * b; break;
          case FpuOp::Div: r = a / b; break;
          default: panic("bad FPU op");
        }
        _results[k].push_back(Result{now + _latency, std::bit_cast<Word>(r)});
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
}

std::optional<FpuDevice::ReadyRead>
FpuDevice::peekReady(Cycle now) const
{
    // Among kinds with both a pending read and a ready result, return
    // the one whose read is oldest in data-sequence order, so the
    // caller can enforce in-order LDQ fill.
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
    ++_resultsReturned;
}

std::size_t
FpuDevice::pendingReads() const
{
    std::size_t n = 0;
    for (const auto &q : _reads)
        n += q.size();
    return n;
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
