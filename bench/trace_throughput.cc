/**
 * Trace-replay throughput: wall-clock instructions/second of the
 * cycle simulator vs. exact trace replay vs. sampled trace replay on
 * the same workloads, plus each engine's cycle estimate so the
 * speed/accuracy trade is visible in one table (docs/trace_replay.md;
 * results in results/trace_replay.md).  An executor row times the
 * functional execution alone, the part of the cycle engine (and of a
 * capture) that exact replay saves.  Next to wall-clock it reports
 * each engine's ticks executed per simulated cycle: host work the
 * idle skip and the loop memo did not save, a deterministic counter
 * that does not move with host noise.
 */

#include <array>
#include <chrono>
#include <iostream>
#include <limits>

#include "bench_common.hh"
#include "cpu/executor.hh"
#include "obs/bench_json.hh"
#include "obs/profiler.hh"
#include "replay/capture.hh"
#include "replay/replay_engine.hh"
#include "sim/simulator.hh"
#include "workloads/synthetic.hh"

using namespace pipesim;

namespace
{

double
secondsOf(const std::function<void()> &body, unsigned reps)
{
    double best = 1e30;
    for (unsigned r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        body();
        const auto t1 = std::chrono::steady_clock::now();
        best = std::min(best,
                        std::chrono::duration<double>(t1 - t0).count());
    }
    return best;
}

/** Ticks executed over cycles, summed over the machines added. */
struct Work
{
    std::uint64_t ticks = 0;
    std::uint64_t cycles = 0;

    void
    add(const Simulator &sim)
    {
        ticks += sim.ticksExecuted();
        cycles += sim.now();
    }

    double perCycle() const { return cycles ? double(ticks) / cycles : 0; }
};

/**
 * An untimed pass that counts each engine's work: the cycle engine's
 * run, the exact replay, and every planned sampling window's warm-up
 * and measured spans.
 */
std::array<Work, 3>
countWork(const SimConfig &cfg, const Program &program,
          const replay::Trace &trace, const replay::ReplayOptions &sampled)
{
    std::array<Work, 3> work;
    Simulator cycle(cfg, program);
    cycle.run();
    work[0].add(cycle);

    DataMemory mem;
    mem.loadProgram(program);
    Simulator exact(cfg, program, mem, &trace);
    exact.runUntil(std::numeric_limits<std::size_t>::max());
    work[1].add(exact);

    const auto plan = replay::planSampleWindows(
        trace.records.size(), replay::computeSyncPoints(program, trace),
        sampled);
    for (const replay::SampleWindow &win : plan) {
        Simulator m(cfg, program, mem, &trace, win.start);
        m.fetchUnit().reset(trace.records[win.start].pc);
        m.runUntil(win.warmEnd);
        m.runUntil(win.measureEnd);
        work[2].add(m);
    }
    return work;
}

int
run(int argc, char **argv)
{
    CliParser cli("trace-replay throughput vs. the cycle simulator");
    cli.addOption("scale", "1.0", "livermore workload scale");
    cli.addOption("synth", "2000000",
                  "synthetic stream target instructions (0 = skip)");
    cli.addOption("sample-period", "20000",
                  "sampled replay period (insts)");
    cli.addOption("reps", "3", "timing repetitions (best-of)");
    cli.addFlag("csv", "CSV output");
    cli.addOption("bench-json", "",
                  "write the results as a pipesim-bench JSON document "
                  "to this file");
    obs::ProfileOptions::addOptions(cli);
    if (!cli.parse(argc, argv))
        return 0;
    obs::activateProfiling(obs::ProfileOptions::fromCli(cli));

    const unsigned reps = unsigned(cli.getInt("reps"));
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);
    cfg.maxCycles = Cycle(1) << 40;

    struct Workload
    {
        std::string name;
        Program program;
    };
    std::vector<Workload> workloads;
    workloads.push_back(
        {"livermore",
         workloads::buildLivermoreBenchmark(cli.getDouble("scale"))
             .program});
    const auto synthTarget = std::uint64_t(cli.getInt("synth"));
    if (synthTarget > 0)
        workloads.push_back(
            {"synth-" + std::to_string(synthTarget),
             workloads::buildSyntheticStream(synthTarget).program});

    replay::ReplayOptions sampled;
    sampled.samplePeriod = unsigned(cli.getInt("sample-period"));

    obs::BenchReport report;
    report.tool = "trace_throughput";
    report.config["scale"] = cli.get("scale");
    report.config["synth"] = cli.get("synth");
    report.config["sample_period"] = cli.get("sample-period");
    report.config["reps"] = cli.get("reps");

    Table table({"workload", "insts", "engine", "est_cycles", "wall_ms",
                 "ns_per_inst", "minsts_per_s", "speedup",
                 "ticks_per_cycle"});
    for (const auto &w : workloads) {
        const replay::Trace trace =
            replay::captureTrace(cfg, w.program, "throughput bench");
        const double insts = double(trace.records.size());

        SimResult cycleRes, exactRes, sampledRes;
        const double cycleS = secondsOf(
            [&] { cycleRes = runSimulation(cfg, w.program); }, reps);
        const double exactS = secondsOf(
            [&] { exactRes = replay::replayTrace(cfg, w.program,
                                                 trace); },
            reps);
        const double sampledS = secondsOf(
            [&] {
                sampledRes = replay::replayTrace(cfg, w.program, trace,
                                                 sampled);
            },
            reps);
        const double execS = secondsOf(
            [&] {
                DataMemory mem;
                mem.loadProgram(w.program);
                Executor exec(w.program, mem);
                exec.commit(std::numeric_limits<std::size_t>::max());
                replay::TraceRecord rec;
                while (exec.step(rec)) {
                }
            },
            reps);
        const auto work = countWork(cfg, w.program, trace, sampled);

        const auto row = [&](const std::string &engine,
                             const SimResult &res, double secs,
                             const Work &engineWork) {
            table.beginRow();
            table.cell(w.name);
            table.cell(std::uint64_t(insts));
            table.cell(engine);
            table.cell(std::uint64_t(res.totalCycles));
            table.cell(secs * 1e3);
            table.cell(secs * 1e9 / insts);
            table.cell(insts / secs / 1e6);
            table.cell(cycleS / secs);
            table.cell(engineWork.perCycle(), 4);

            obs::BenchRecord &rec = report.add(w.name + "/" + engine);
            rec.config["workload"] = w.name;
            rec.config["engine"] = engine;
            // The sampling confidence interval is a string on purpose:
            // a single-window run reports "n/a", not a fake 0.
            if (const auto ci = res.meta.find("cpi_rel_ci95");
                ci != res.meta.end())
                rec.config["cpi_rel_ci95"] = ci->second;
            rec.metrics["insts"] = insts;
            rec.metrics["est_cycles"] = double(res.totalCycles);
            rec.metrics["wall_ms"] = secs * 1e3;
            rec.metrics["ns_per_inst"] = secs * 1e9 / insts;
            rec.metrics["minsts_per_s"] = insts / secs / 1e6;
            rec.metrics["speedup_vs_cycle"] = cycleS / secs;
            rec.metrics["ticks_per_cycle"] = engineWork.perCycle();
        };
        row("cycle", cycleRes, cycleS, work[0]);
        row("trace-exact", exactRes, exactS, work[1]);
        row("trace-sampled", sampledRes, sampledS, work[2]);
        row("executor", SimResult{}, execS, Work{});
    }
    std::cout << (cli.getFlag("csv") ? table.toCsv() : table.toText())
              << "\n";
    const std::string benchJson = cli.get("bench-json");
    if (!benchJson.empty()) {
        report.writeFile(benchJson);
        std::cerr << "wrote bench results to " << benchJson << "\n";
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return pipesim::runGuardedMain([&] { return run(argc, argv); });
}
