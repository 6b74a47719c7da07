#include "replay/replay_engine.hh"

#include <algorithm>
#include <array>
#include <cmath>
#include <future>
#include <limits>
#include <map>
#include <string>
#include <vector>

#include "common/abort.hh"
#include "common/log.hh"
#include "common/thread_pool.hh"
#include "mem/data_memory.hh"
#include "mem/fpu.hh"
#include "obs/profiler.hh"

namespace pipesim::replay
{

// Interruption note: every replayed machine is a Simulator driven by
// Simulator::runUntil, whose per-cycle watchdog check — in addition
// to the simulated-time watchdogs — polls the guard's shutdown flag
// (throwing InterruptedError).  Under the pooled window passes that
// exception is captured in each window's std::future and rethrown at
// the plan-order collection point, so a SIGINT never strands a worker
// mid-window.

namespace
{

/** Fail a sampled replay that measures nothing: no window fits in a
 *  trace of @p total records. */
[[noreturn]] void
failNoMeasuredInstructions(std::size_t total, const ReplayOptions &opt)
{
    fatal("trace replay: sampling produced no measured "
          "instructions (trace of ", total,
          " records, period ", opt.samplePeriod, ")");
}

/**
 * The trace-level checks, then the sampling plan (empty in the exact
 * mode): what every configuration's replay shares.
 */
std::vector<SampleWindow>
planFor(const Program &program, const Trace &trace,
        const ReplayOptions &opt)
{
    obs::ScopedPhase phase("replay.prepare", obs::Scope::Coarse);
    const std::string hash = programSha256(program);
    if (hash != trace.meta.programSha256)
        fatal("trace was captured from a different program: trace "
              "records program sha256 ", trace.meta.programSha256,
              " but this program hashes to ", hash,
              " (capture provenance: ",
              trace.meta.provenance.empty() ? "none"
                                            : trace.meta.provenance,
              ")");
    if (trace.records.empty())
        fatal("trace replay: the trace holds no records");
    if (opt.samplePeriod == 0)
        return {};
    if (opt.sampleMeasure == 0)
        fatal("trace replay: sampleMeasure must be nonzero");
    if (std::uint64_t(opt.sampleWarmup) + opt.sampleMeasure >
        opt.samplePeriod)
        fatal("trace replay: samplePeriod (", opt.samplePeriod,
              ") must cover warmup (", opt.sampleWarmup,
              ") + measure (", opt.sampleMeasure, ")");
    std::vector<SampleWindow> plan = planSampleWindows(
        trace.records.size(), computeSyncPoints(program, trace), opt);
    if (plan.empty())
        failNoMeasuredInstructions(trace.records.size(), opt);
    return plan;
}

/**
 * What one executed window contributed.  Wall-clock phase times are
 * carried here (instead of added to the profiler in place) so pooled
 * windows never touch the profiler from a worker thread and the
 * attribution is identical for any job count.
 */
struct WindowOutcome
{
    /** The trace ended inside this window's warm-up: nothing was
     *  measured, and no later window can measure anything either. */
    bool warmIncomplete = false;

    std::uint64_t insts = 0;
    Cycle cycles = 0;
    std::map<std::string, std::uint64_t> counterDeltas;

    std::uint64_t warmNs = 0;
    std::uint64_t measureNs = 0;
};

/** Advance @p m to @p warmEnd (detailed warm-up).  @return false when
 *  the trace ran out first. */
bool
runWarmup(Simulator &m, std::size_t warmEnd, bool prof,
          WindowOutcome &out)
{
    const std::uint64_t startNs = prof ? obs::profileNowNs() : 0;
    m.runUntil(warmEnd);
    if (prof)
        out.warmNs = obs::profileNowNs() - startNs;
    if (m.pipeline().cursor() < warmEnd) {
        out.warmIncomplete = true;
        return false;
    }
    return true;
}

/** Run the measured span of @p win on a machine already positioned at
 *  its warm end, filling the outcome's deltas. */
void
runMeasure(Simulator &m, const SampleWindow &win, bool prof,
           WindowOutcome &out)
{
    const Cycle warmEndCycle = m.now();
    StatGroup &stats = m.stats();
    const auto names = stats.counterNames();
    std::vector<std::uint64_t> before;
    before.reserve(names.size());
    for (const auto &name : names)
        before.push_back(stats.counterValue(name));

    const std::uint64_t startNs = prof ? obs::profileNowNs() : 0;
    m.runUntil(win.measureEnd);
    if (prof)
        out.measureNs = obs::profileNowNs() - startNs;

    out.insts = m.pipeline().cursor() - win.warmEnd;
    out.cycles = m.now() - warmEndCycle;
    if (out.insts == 0)
        return;
    for (std::size_t i = 0; i < names.size(); ++i)
        out.counterDeltas[names[i]] =
            stats.counterValue(names[i]) - before[i];
}

/**
 * Run @p job(i) for every window index: inline when @p jobs <= 1,
 * else as independent jobs on a pool, collected in plan order so the
 * first failing window's exception surfaces deterministically,
 * exactly as the serial pass would have thrown it (the pool already
 * isolates each job's failure).
 */
template <class Job>
void
forEachWindow(std::size_t count, unsigned jobs, const Job &job)
{
    if (jobs <= 1) {
        for (std::size_t i = 0; i < count; ++i)
            job(i);
        return;
    }
    ThreadPool pool(jobs);
    std::vector<std::future<void>> futures;
    futures.reserve(count);
    for (std::size_t i = 0; i < count; ++i)
        futures.push_back(pool.submit([&job, i] { job(i); }));
    for (auto &f : futures)
        f.get();
}

/**
 * Run every window of @p plan cold: each warms up from its sync point,
 * then runs its measured span.  The windows share one empty
 * DataMemory, which a trace-driven machine never reads or writes;
 * serially (@p jobs <= 1) they stop at the first window whose warm-up
 * runs off the trace end.
 */
std::vector<WindowOutcome>
runColdWindows(const SimConfig &config, const Program &program,
               const Trace &trace, const std::vector<SampleWindow> &plan,
               bool prof, unsigned jobs)
{
    DataMemory dataMem;
    bool ranDry = false; // written by the serial pass only

    std::vector<WindowOutcome> outcomes(plan.size());
    forEachWindow(plan.size(), jobs, [&](std::size_t i) {
        if (ranDry)
            return;
        const SampleWindow &win = plan[i];
        WindowOutcome &out = outcomes[i];
        Simulator m(config, program, dataMem, &trace, win.start);
        m.fetchUnit().reset(trace.records[win.start].pc);
        if (!runWarmup(m, win.warmEnd, prof, out)) {
            if (jobs <= 1)
                ranDry = true;
            return;
        }
        runMeasure(m, win, prof, out);
    });
    return outcomes;
}

} // namespace

PreparedReplay::PreparedReplay(const Program &program, const Trace &trace,
                               const ReplayOptions &options)
    : _program(program), _trace(trace), _options(options),
      _plan(planFor(program, trace, options))
{
}

SimResult
PreparedReplay::replay(const SimConfig &config) const
{
    return _options.samplePeriod == 0 ? replayExact(config)
                                      : replaySampled(config);
}

SimResult
PreparedReplay::replayExact(const SimConfig &config) const
{
    obs::ScopedPhase phase("replay.exact", obs::Scope::Coarse);
    // Nothing reads the backing store: the trace supplies every
    // effective address and branch outcome.
    DataMemory dataMem;
    Simulator sim(config, _program, dataMem, &_trace);
    sim.runUntil(std::numeric_limits<std::size_t>::max());
    if (!sim.pipeline().traceExhausted())
        fatal("trace replay halted after ", sim.pipeline().cursor(),
              " instructions but the trace holds ",
              _trace.records.size(),
              " — the trace does not match this program");

    SimResult r = sim.result();
    r.meta["engine"] = "trace-exact";
    r.meta["trace_sha256"] = _trace.sha256;
    r.meta["program_sha256"] = _trace.meta.programSha256;
    return r;
}

SimResult
PreparedReplay::replaySampled(const SimConfig &config) const
{
    obs::ScopedPhase samplePhase("replay.sampled", obs::Scope::Coarse);
    const std::size_t total = _trace.records.size();

    // Warm-up vs measurement attribution across all windows (the
    // paper's sampling cost model: warm-up is pure overhead).  The
    // clock is only read when the profiler is attached.
    const bool prof = obs::Profiler::enabled();
    obs::CachedPhase warmPhase, measurePhase;
    if (prof) {
        warmPhase = obs::CachedPhase("window.warmup");
        measurePhase = obs::CachedPhase("window.measure");
    }

    const std::vector<WindowOutcome> outcomes =
        runColdWindows(config, _program, _trace, _plan, prof,
                       resolveJobCount(_options.jobs));

    // Accumulate in plan order: serial and pooled windows feed the
    // estimator the same sequence, so the result is bit-identical for
    // any job count.
    std::map<std::string, std::uint64_t> measuredCounters;
    std::vector<double> windowCpis;
    std::uint64_t measuredInsts = 0;
    Cycle measuredCycles = 0;
    for (const WindowOutcome &out : outcomes) {
        if (prof) {
            warmPhase.add(out.warmNs);
            measurePhase.add(out.measureNs);
        }
        if (out.warmIncomplete)
            break; // trace (and program) ended inside the warm-up
        if (out.insts == 0)
            continue;
        measuredInsts += out.insts;
        measuredCycles += out.cycles;
        windowCpis.push_back(double(out.cycles) / double(out.insts));
        for (const auto &[name, delta] : out.counterDeltas)
            measuredCounters[name] += delta;
    }

    if (measuredInsts == 0) // planFor rejects an empty plan; a backstop
        failNoMeasuredInstructions(total, _options);

    // Ratio estimator for the point value; the CI comes from the
    // spread of the per-window CPIs (CLT over systematic windows).
    const double cpi = double(measuredCycles) / double(measuredInsts);
    std::string relCi = "n/a"; // a single window has no spread
    if (windowCpis.size() > 1) {
        double mean = 0.0;
        for (double c : windowCpis)
            mean += c;
        mean /= double(windowCpis.size());
        double var = 0.0;
        for (double c : windowCpis)
            var += (c - mean) * (c - mean);
        var /= double(windowCpis.size() - 1);
        relCi = std::to_string(
            1.96 * std::sqrt(var / double(windowCpis.size())) / mean);
    }

    SimResult r;
    r.totalCycles = Cycle(std::llround(cpi * double(total)));
    r.instructions = total;
    r.counters = std::move(measuredCounters);
    r.meta["engine"] = "trace-sampled";
    r.meta["trace_sha256"] = _trace.sha256;
    r.meta["program_sha256"] = _trace.meta.programSha256;
    r.meta["sample_period"] = std::to_string(_options.samplePeriod);
    r.meta["sample_warmup"] = std::to_string(_options.sampleWarmup);
    r.meta["sample_measure"] = std::to_string(_options.sampleMeasure);
    r.meta["sample_windows"] = std::to_string(windowCpis.size());
    r.meta["sampled_instructions"] = std::to_string(measuredInsts);
    r.meta["cpi_estimate"] = std::to_string(cpi);
    r.meta["cpi_rel_ci95"] = relCi;
    // Counters sum only the measured windows; scale by
    // instructions/sampled_instructions for whole-run estimates.
    r.meta["counters_scope"] = "measured_windows";
    return r;
}

std::vector<std::size_t>
computeSyncPoints(const Program &program, const Trace &trace)
{
    obs::ScopedPhase phase("replay.sync_scan", obs::Scope::Coarse);
    // The scan touches every trace record but the program's static
    // footprint is small, so decode each pc once and replay the scan
    // from the cache — this is what keeps sampled replay fast on
    // multi-million-instruction traces.
    struct PcInfo
    {
        bool known = false;
        std::int8_t ldqPops = 0;
        bool isLoad = false, pushesSdq = false, isStore = false;
        std::uint8_t count = 0;
    };
    std::vector<PcInfo> decoded; // flat, indexed by pc / parcelBytes

    std::vector<std::size_t> points;
    std::int64_t ldqBalance = 0; // loads issued - r7 source reads
    std::int64_t sdqBalance = 0; // r7 dest writes - store addresses
    std::array<std::int64_t, unsigned(FpuOp::NumOps)> fpuBalance{};
    unsigned branchShadow = 0; // records left in a taken pbr's shadow
    for (std::size_t i = 0; i < trace.records.size(); ++i) {
        const bool fpuIdle =
            std::all_of(fpuBalance.begin(), fpuBalance.end(),
                        [](std::int64_t b) { return b == 0; });
        if (ldqBalance == 0 && sdqBalance == 0 && fpuIdle &&
            branchShadow == 0)
            points.push_back(i);
        const TraceRecord &rec = trace.records[i];
        const std::size_t slot = rec.pc / parcelBytes;
        if (slot >= decoded.size())
            decoded.resize(slot + 1);
        if (!decoded[slot].known) {
            const auto di = program.decodeAt(rec.pc);
            if (!di)
                fatal("trace record #", i, " names pc 0x", std::hex,
                      rec.pc, std::dec,
                      " which is not a decodable instruction in this "
                      "program");
            decoded[slot] = PcInfo{true, std::int8_t(di->ldqPops()),
                                   di->isLoad(), di->pushesSdq(),
                                   di->isStore(), di->count};
        }
        const PcInfo &inst = decoded[slot];
        ldqBalance -= inst.ldqPops;
        if (inst.isLoad)
            ++ldqBalance;
        if (inst.pushesSdq)
            ++sdqBalance;
        if (inst.isStore)
            --sdqBalance;
        if (rec.hasMemAddr && FpuDevice::contains(rec.memAddr)) {
            for (unsigned k = 0; k < unsigned(FpuOp::NumOps); ++k) {
                const auto op = FpuOp(k);
                if (rec.memIsStore && rec.memAddr == FpuDevice::opB(op))
                    ++fpuBalance[k];
                if (!rec.memIsStore &&
                    rec.memAddr == FpuDevice::opResult(op))
                    --fpuBalance[k];
            }
        }
        if (branchShadow > 0)
            --branchShadow;
        if (rec.isPbr && rec.branchTaken)
            branchShadow = std::max(branchShadow, unsigned(inst.count));
    }
    return points;
}

std::vector<SampleWindow>
planSampleWindows(std::size_t totalRecords,
                  const std::vector<std::size_t> &syncPoints,
                  const ReplayOptions &opt)
{
    std::vector<SampleWindow> plan;
    for (std::size_t k = 0;; ++k) {
        const std::size_t target = k * std::size_t(opt.samplePeriod);
        if (target >= totalRecords)
            break;
        const auto it = std::lower_bound(syncPoints.begin(),
                                         syncPoints.end(), target);
        if (it == syncPoints.end())
            break;
        const std::size_t start = *it;
        // Sparse sync points can round consecutive period targets up
        // to the same point; a duplicate window would be measured
        // twice, double-weighting it in the CPI estimator and
        // double-counting its deltas.
        if (!plan.empty() && plan.back().start == start)
            continue;
        const std::size_t warmEnd =
            std::min<std::size_t>(start + opt.sampleWarmup, totalRecords);
        const std::size_t measureEnd = std::min<std::size_t>(
            warmEnd + opt.sampleMeasure, totalRecords);
        if (measureEnd <= warmEnd)
            break; // nothing left to measure in the tail
        plan.push_back(SampleWindow{start, warmEnd, measureEnd});
    }
    return plan;
}

SimResult
replayTrace(const SimConfig &config, const Program &program,
            const Trace &trace, const ReplayOptions &options)
{
    return PreparedReplay(program, trace, options).replay(config);
}

} // namespace pipesim::replay
