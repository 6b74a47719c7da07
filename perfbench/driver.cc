/**
 * perfbench driver: runs one benchmark workload through pipesim's
 * public entry points and prints what it measured as one JSON object
 * on stdout.  run.py builds and invokes it, checks every simulated
 * result against the golden tables and turns the raw timings into
 * metrics; README.md lists the library calls made here.
 *
 *   perfbench_driver --workload NAME --sizes 64,16,... \
 *       --strategies conv,16-16,... --seconds S [--traced]
 *
 * Timed mode repeats the workload's sweeps until S seconds have
 * passed and reports every repetition.  Traced mode (--traced) runs
 * the sweeps once untraced, then drives each point's Simulator from
 * this file's own cycle loop, timing the calls into every layer, and
 * finally times the replay layer's calls on its own.
 */

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "replay/capture.hh"
#include "replay/replay_engine.hh"
#include "sim/experiment.hh"
#include "sim/simulator.hh"
#include "workloads/benchmark_program.hh"
#include "workloads/reference.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace pipesim;

namespace
{

// Sampled replay: one window of 300 warm-up + 700 measured
// instructions every 10000, about 16 windows over the 157k-instruction
// program.  Fixed here so cpi_err_pct and the sampled goldens are
// comparable across commits.
constexpr unsigned kSamplePeriod = 10000;
constexpr unsigned kSampleWarmup = 300;
constexpr unsigned kSampleMeasure = 700;

// Set-up is short (the build takes well under a millisecond, the
// capture tens of ms), and load from other tenants of a shared host
// comes in bursts that only ever add time.  So every timed repetition
// starts with a burst of kMinSetupReps to kMaxSetupReps set-ups, for
// up to kSetupBurstSeconds; each burst reports its fastest set-up, and
// run.py the median over the bursts.
constexpr double kSetupBurstSeconds = 0.2;
constexpr std::size_t kMinSetupReps = 3;
constexpr std::size_t kMaxSetupReps = 201;

std::uint64_t
nowNs()
{
    return std::uint64_t(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

struct Panel
{
    std::string name; //!< figure panel, e.g. "4a"
    unsigned accessTime = 1;
    unsigned busBytes = 4;
};

struct Workload
{
    std::vector<Panel> panels;
    unsigned jobs = 1;
    bool replay = false; //!< exact then sampled trace-engine sweeps
};

Workload
workloadNamed(const std::string &name)
{
    const std::vector<Panel> fig4 = {{"4a", 1, 4}, {"4b", 1, 8}};
    const std::vector<Panel> fig5 = {{"5a", 6, 4}, {"5b", 6, 8}};
    if (name == "fig4-serial")
        return {fig4, 1, false};
    if (name == "fig5-parallel")
        return {fig5, 2, false};
    if (name == "replay-fig4")
        return {fig4, 1, true};
    throw std::runtime_error("unknown workload '" + name + "'");
}

struct Args
{
    std::string workload;
    std::vector<unsigned> sizes;
    std::vector<std::string> strategies;
    double seconds = 1.0;
    bool traced = false;
};

std::vector<std::string>
splitCommas(const std::string &s)
{
    std::vector<std::string> out;
    std::stringstream ss(s);
    std::string item;
    while (std::getline(ss, item, ','))
        out.push_back(item);
    return out;
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--traced") {
            a.traced = true;
            continue;
        }
        if (i + 1 >= argc)
            throw std::runtime_error("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload")
            a.workload = value;
        else if (flag == "--sizes")
            for (const auto &s : splitCommas(value))
                a.sizes.push_back(unsigned(std::stoul(s)));
        else if (flag == "--strategies")
            a.strategies = splitCommas(value);
        else if (flag == "--seconds")
            a.seconds = std::stod(value);
        else
            throw std::runtime_error("unknown flag " + flag);
    }
    if (a.workload.empty() || a.sizes.empty() || a.strategies.empty())
        throw std::runtime_error(
            "need --workload, --sizes and --strategies");
    return a;
}

/**
 * Peak resident set of this process image, from /proc/self/status.
 * getrusage()'s ru_maxrss would carry over the peak of the process
 * that exec'd this one (run.py's Python interpreter).
 */
std::uint64_t
peakRssKbOfThisImage()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stoull(line.substr(6));
    throw std::runtime_error("no VmHWM in /proc/self/status");
}

/** One sweep point as run.py checks it against the goldens. */
struct PointRec
{
    std::string panel;
    std::string mode; //!< cycle, exact or sampled
    std::string strategy;
    unsigned size = 0;
    std::uint64_t cycles = 0;
    std::uint64_t insts = 0;
    std::uint64_t wallNs = 0;
    std::string error; //!< non-empty when the point failed
};

PointRec
pointRec(const std::string &panel, const std::string &mode,
         const std::string &strategy, unsigned size)
{
    PointRec p;
    p.panel = panel;
    p.mode = mode;
    p.strategy = strategy;
    p.size = size;
    return p;
}

SweepSpec
specFor(const Panel &panel, const Args &a, unsigned jobs)
{
    SweepSpec spec;
    spec.cacheSizes = a.sizes;
    spec.strategies = a.strategies;
    spec.mem.accessTime = panel.accessTime;
    spec.mem.busWidthBytes = panel.busBytes;
    spec.mem.pipelined = false;
    spec.jobs = jobs;
    spec.failurePolicy = SweepFailurePolicy::CollectAndContinue;
    return spec;
}

/** specFor() on the trace engine; @p period 0 replays exactly. */
SweepSpec
replaySpecFor(const Panel &panel, const Args &a, unsigned jobs,
              const replay::Trace *trace, unsigned period)
{
    SweepSpec spec = specFor(panel, a, jobs);
    spec.engine = SweepEngine::Trace;
    spec.trace = trace;
    spec.samplePeriod = period;
    spec.sampleWarmup = kSampleWarmup;
    spec.sampleMeasure = kSampleMeasure;
    return spec;
}

/** runCacheSweep over one panel; appends one record per valid point. */
void
sweepPanel(const SweepSpec &spec, const Panel &panel,
           const std::string &mode, const Program &program,
           std::vector<PointRec> &out)
{
    std::map<std::pair<std::string, unsigned>, SimResult> results;
    const SweepResult sweep = runCacheSweep(
        spec, program,
        [&](const std::string &strategy, unsigned size,
            const SimResult &r) { results[{strategy, size}] = r; });
    for (const PointTiming &t : sweep.timings) {
        PointRec p = pointRec(panel.name, mode, t.strategy,
                              t.cacheBytes);
        p.wallNs = t.wallNs;
        const auto it = results.find({t.strategy, t.cacheBytes});
        if (it != results.end()) {
            p.cycles = it->second.totalCycles;
            p.insts = it->second.instructions;
        }
        out.push_back(p);
    }
    for (const PointFailure &f : sweep.failures)
        for (PointRec &p : out)
            if (p.panel == panel.name && p.mode == mode &&
                p.strategy == f.strategy && p.size == f.cacheBytes)
                p.error = f.message;
}

/**
 * One repetition of the workload's timed section: every panel on the
 * cycle engine, or on replay-fig4 every panel replayed exactly and
 * then sampled.
 */
std::vector<PointRec>
runRep(const Workload &w, const Args &a, const Program &program,
       const replay::Trace *trace)
{
    std::vector<PointRec> points;
    if (!w.replay) {
        for (const Panel &panel : w.panels)
            sweepPanel(specFor(panel, a, w.jobs), panel, "cycle", program,
                       points);
        return points;
    }
    for (const unsigned period : {0u, kSamplePeriod})
        for (const Panel &panel : w.panels)
            sweepPanel(replaySpecFor(panel, a, w.jobs, trace, period), panel,
                       period ? "sampled" : "exact", program, points);
    return points;
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (c == '\n')
            out += "\\n";
        else if (std::uint8_t(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

void
writePoints(std::ostream &os, const std::vector<PointRec> &points)
{
    os << "[";
    for (std::size_t i = 0; i < points.size(); ++i) {
        const PointRec &p = points[i];
        os << (i ? "," : "") << "{\"panel\":" << jsonString(p.panel)
           << ",\"mode\":" << jsonString(p.mode)
           << ",\"strategy\":" << jsonString(p.strategy)
           << ",\"size\":" << p.size << ",\"cycles\":" << p.cycles
           << ",\"insts\":" << p.insts << ",\"wall_ns\":" << p.wallNs
           << ",\"error\":" << jsonString(p.error) << "}";
    }
    os << "]";
}

void
writeList(std::ostream &os, const std::vector<std::uint64_t> &values)
{
    os << "[";
    for (std::size_t i = 0; i < values.size(); ++i)
        os << (i ? "," : "") << values[i];
    os << "]";
}

/**
 * Set-up: the program build, plus the trace capture on replay-fig4.
 * The last build (and capture) of the latest burst is the one used.
 */
struct Setup
{
    workloads::Benchmark benchmark;
    replay::Trace trace;
    std::vector<std::uint64_t> burstNs; //!< fastest set-up per burst
    std::vector<std::uint64_t> buildNs; //!< every program build
};

/** One burst of set-ups, recorded in @p s. */
void
runSetup(Setup &s, bool capture)
{
    const std::uint64_t start = nowNs();
    std::uint64_t fastest = UINT64_MAX;
    for (std::size_t n = 0;
         n < kMinSetupReps ||
         (n < kMaxSetupReps &&
          double(nowNs() - start) < kSetupBurstSeconds * 1e9);
         ++n) {
        const std::uint64_t t0 = nowNs();
        s.benchmark = workloads::buildLivermoreBenchmark(1.0);
        const std::uint64_t t1 = nowNs();
        if (capture)
            s.trace = replay::captureTrace(SimConfig{}, s.benchmark.program,
                                           "perfbench");
        const std::uint64_t t2 = nowNs();
        s.buildNs.push_back(t1 - t0);
        fastest = std::min(fastest, t2 - t0);
    }
    s.burstNs.push_back(fastest);
}

int
runTimed(const Workload &w, const Args &a)
{
    Setup s;
    const Program &program = s.benchmark.program;

    std::vector<std::uint64_t> repNs;
    std::vector<std::vector<PointRec>> reps;
    const std::uint64_t start = nowNs();
    do {
        runSetup(s, w.replay);
        const std::uint64_t t0 = nowNs();
        reps.push_back(runRep(w, a, program, &s.trace));
        repNs.push_back(nowNs() - t0);
    } while (double(nowNs() - start) < a.seconds * 1e9);

    const std::uint64_t peakRssKb = peakRssKbOfThisImage();

    // Accuracy of sampled replay on the cycle workloads' own grid,
    // outside the timed section (replay-fig4 samples inside it).
    std::vector<PointRec> accuracy;
    if (!w.replay) {
        const replay::Trace trace =
            replay::captureTrace(SimConfig{}, program, "perfbench");
        for (const Panel &panel : w.panels)
            sweepPanel(
                replaySpecFor(panel, a, w.jobs, &trace, kSamplePeriod),
                panel, "sampled", program, accuracy);
    }

    std::ostream &os = std::cout;
    os << "{\"mode\":\"timed\",\"compiler\":" << jsonString(__VERSION__)
       << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
       << ",\"jobs\":" << w.jobs << ",\"setup_ns\":";
    writeList(os, s.burstNs);
    os << ",\"peak_rss_kb\":" << peakRssKb << ",\"rep_ns\":";
    writeList(os, repNs);
    os << ",\"reps\":[";
    for (std::size_t i = 0; i < reps.size(); ++i) {
        os << (i ? "," : "");
        writePoints(os, reps[i]);
    }
    os << "],\"accuracy\":";
    writePoints(os, accuracy);
    os << "}\n";
    return 0;
}

/** Host time one point spent in each layer of the traced loop. */
struct LayerSpan
{
    std::uint64_t startNs = 0; //!< relative to the traced pass start
    std::uint64_t fetchNs = 0, memNs = 0, cpuNs = 0, loopNs = 0;
    std::uint64_t loopWallNs = 0; //!< the whole traced loop
    std::uint64_t cycles = 0;     //!< loop iterations
    std::uint64_t buildNs = 0;    //!< Simulator construction
    std::uint64_t untracedNs = 0; //!< Simulator::run() of the same point
};

/**
 * The traced cycle loop: Simulator::step()'s three ticks and
 * Simulator::run()'s done() test, with chained timestamps so every
 * interval lands in one layer.  The loop bookkeeping is charged to
 * the sim layer along with done().  Watchdogs other than maxCycles
 * are the untraced run's job.
 */
void
tracedLoop(Simulator &sim, LayerSpan &span)
{
    FetchUnit &fetch = sim.fetchUnit();
    MemorySystem &mem = sim.memorySystem();
    Pipeline &cpu = sim.pipeline();
    const Cycle maxCycles = sim.config().maxCycles;
    std::uint64_t fetchNs = 0, memNs = 0, cpuNs = 0, loopNs = 0;
    Cycle now = 0;
    const std::uint64_t start = nowNs();
    std::uint64_t t3 = start;
    for (;;) {
        const bool finished = sim.done();
        const std::uint64_t t0 = nowNs();
        loopNs += t0 - t3;
        if (finished)
            break;
        fetch.tick(now);
        const std::uint64_t t1 = nowNs();
        mem.tick(now);
        const std::uint64_t t2 = nowNs();
        cpu.tick(now);
        t3 = nowNs();
        fetchNs += t1 - t0;
        memNs += t2 - t1;
        cpuNs += t3 - t2;
        if (++now > maxCycles)
            throw std::runtime_error("traced loop exceeded maxCycles");
    }
    span.loopWallNs = nowNs() - start;
    span.fetchNs = fetchNs;
    span.memNs = memNs;
    span.cpuNs = cpuNs;
    span.loopNs = loopNs;
    span.cycles = now;
}

int
runTraced(const Workload &w, const Args &a)
{
    Setup s;
    runSetup(s, false);
    const workloads::Benchmark &bench = s.benchmark;
    const Program &program = bench.program;

    // The replay layer's capture, timed here and replayed by A and C.
    const std::uint64_t c0 = nowNs();
    const replay::Trace trace =
        replay::captureTrace(SimConfig{}, program, "perfbench");
    const std::uint64_t c1 = nowNs();

    // A. One untraced repetition of the timed section: the sweep layer.
    const std::uint64_t repStart = nowNs();
    const std::vector<PointRec> untraced = runRep(w, a, program, &trace);
    const std::uint64_t repNs = nowNs() - repStart;

    // B. The traced cycle loop over the workload's grid, one point at a
    //    time, each checked against its own untraced Simulator::run().
    std::vector<PointRec> traced;
    std::vector<LayerSpan> spans;
    std::map<std::string, std::uint64_t> counters;
    const std::uint64_t passStart = nowNs();
    for (const Panel &panel : w.panels) {
        for (const SweepPointPlan &pt :
             planSweepPoints(specFor(panel, a, 1))) {
            PointRec p =
                pointRec(panel.name, "cycle", pt.strategy, pt.cacheBytes);
            LayerSpan span;
            span.startNs = nowNs() - passStart;
            try {
                const std::uint64_t t0 = nowNs();
                Simulator reference(pt.cfg, program);
                const std::uint64_t t1 = nowNs();
                const SimResult want = reference.run();
                span.untracedNs = nowNs() - t1;
                span.buildNs = t1 - t0;

                Simulator sim(pt.cfg, program);
                tracedLoop(sim, span);
                const SimResult got = sim.result();
                p.cycles = got.totalCycles;
                p.insts = got.instructions;
                p.wallNs = span.loopWallNs;
                if (got.totalCycles != want.totalCycles ||
                    got.instructions != want.instructions ||
                    got.counters != want.counters)
                    p.error = "traced result differs from Simulator::run()";
                for (std::size_t k = 0; k < bench.kernels.size(); ++k) {
                    std::string diag;
                    if (!workloads::verifyAgainstReference(
                            sim.dataMemory(), bench.kernels[k],
                            bench.codeInfo[k], &diag))
                        p.error = "kernel " + std::to_string(k + 1) +
                                  " fails its host reference: " + diag;
                }
                for (const auto &[key, value] : got.counters)
                    counters[key] += value;
            } catch (const std::exception &e) {
                p.error = e.what();
            }
            traced.push_back(p);
            spans.push_back(span);
        }
    }

    // C. The replay layer's calls, timed one by one over the same grid.
    const std::uint64_t c2 = nowNs();
    const std::vector<std::size_t> sync =
        replay::computeSyncPoints(program, trace);
    const std::uint64_t c3 = nowNs();
    replay::ReplayOptions sampled;
    sampled.samplePeriod = kSamplePeriod;
    sampled.sampleWarmup = kSampleWarmup;
    sampled.sampleMeasure = kSampleMeasure;
    const std::vector<replay::SampleWindow> windows =
        replay::planSampleWindows(trace.records.size(), sync, sampled);
    const std::uint64_t c4 = nowNs();
    std::uint64_t warmInsts = 0, replayedInsts = 0;
    for (const replay::SampleWindow &win : windows) {
        warmInsts += win.warmEnd - win.start;
        replayedInsts += win.measureEnd - win.start;
    }
    std::vector<PointRec> replayed;
    std::uint64_t exactNs = 0, sampledNs = 0, replayInsts = 0;
    for (const Panel &panel : w.panels) {
        for (const SweepPointPlan &pt :
             planSweepPoints(specFor(panel, a, 1))) {
            for (const bool exact : {true, false}) {
                PointRec p =
                    pointRec(panel.name, exact ? "exact" : "sampled",
                             pt.strategy, pt.cacheBytes);
                try {
                    const std::uint64_t t0 = nowNs();
                    const SimResult r = replay::replayTrace(
                        pt.cfg, program, trace,
                        exact ? replay::ReplayOptions{} : sampled);
                    p.wallNs = nowNs() - t0;
                    p.cycles = r.totalCycles;
                    p.insts = r.instructions;
                } catch (const std::exception &e) {
                    p.error = e.what();
                }
                (exact ? exactNs : sampledNs) += p.wallNs;
                replayed.push_back(p);
            }
            replayInsts += trace.records.size();
        }
    }

    std::ostream &os = std::cout;
    os << "{\"mode\":\"traced\",\"compiler\":" << jsonString(__VERSION__)
       << ",\"build_type\":" << jsonString(PERFBENCH_BUILD_TYPE)
       << ",\"jobs\":" << w.jobs << ",\"build_ns\":";
    writeList(os, s.buildNs);
    os << ",\"rep_ns\":" << repNs << ",\"untraced\":";
    writePoints(os, untraced);
    os << ",\"traced\":";
    writePoints(os, traced);
    os << ",\"spans\":[";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const LayerSpan &sp = spans[i];
        os << (i ? "," : "") << "{\"start_ns\":" << sp.startNs
           << ",\"core_ns\":" << sp.fetchNs << ",\"mem_ns\":" << sp.memNs
           << ",\"cpu_ns\":" << sp.cpuNs << ",\"sim_loop_ns\":"
           << sp.loopNs << ",\"loop_wall_ns\":" << sp.loopWallNs
           << ",\"cycles\":" << sp.cycles << ",\"build_ns\":"
           << sp.buildNs << ",\"untraced_ns\":" << sp.untracedNs << "}";
    }
    os << "],\"counters\":{";
    bool first = true;
    for (const auto &[key, value] : counters) {
        os << (first ? "" : ",") << jsonString(key) << ":" << value;
        first = false;
    }
    os << "},\"replay\":{\"capture_ns\":" << (c1 - c0)
       << ",\"sync_points_ns\":" << (c3 - c2)
       << ",\"plan_ns\":" << (c4 - c3) << ",\"windows\":"
       << windows.size() << ",\"warmup_insts\":" << warmInsts
       << ",\"replayed_insts\":" << replayedInsts
       << ",\"exact_ns\":" << exactNs << ",\"sampled_ns\":" << sampledNs
       << ",\"insts\":" << replayInsts << ",\"points\":";
    writePoints(os, replayed);
    os << "}}\n";
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        const Args a = parseArgs(argc, argv);
        const Workload w = workloadNamed(a.workload);
        return a.traced ? runTraced(w, a) : runTimed(w, a);
    } catch (const std::exception &e) {
        std::cerr << "perfbench_driver: " << e.what() << "\n";
        return 1;
    }
}
