/**
 * pipesim-trace: capture, inspect and replay committed-instruction
 * traces (docs/trace_replay.md).
 *
 *     pipesim-trace capture <out.pipetrc> [--workload ...] [--scale f]
 *     pipesim-trace inspect <trace.pipetrc>
 *     pipesim-trace replay  <trace.pipetrc> [--strategy s] [--cache n]
 *                           [--sample-period n] [--jobs n]
 *                           [--stats-json path]
 *
 * A trace stores the committed fetch-address stream plus the traced
 * program's sha256, so `replay` rebuilds the same workload
 * (--workload/--scale must match the capture) and refuses a trace
 * whose program hash disagrees.  Replay is exact (bit-identical
 * counters and cycle count) by default; --sample-period enables
 * systematic sampling for a fast estimate, whose windows can run on a
 * thread pool (--jobs).
 */

#include <fstream>
#include <iostream>
#include <string>

#include "common/log.hh"
#include "obs/profiler.hh"
#include "obs/stats_export.hh"
#include "replay/capture.hh"
#include "replay/replay_engine.hh"
#include "replay/trace_format.hh"
#include "sim/cli.hh"
#include "sim/config.hh"
#include "sim/guard.hh"
#include "sim/simulator.hh"
#include "workloads/benchmark_program.hh"
#include "workloads/synthetic.hh"

using namespace pipesim;

namespace
{

void
addWorkloadOptions(CliParser &cli)
{
    cli.addOption("workload", "livermore",
                  "traced workload: livermore | branchy | "
                  "synth:<insts> (synthetic loop sized to ~<insts> "
                  "dynamic instructions)");
    cli.addOption("scale", "1.0",
                  "livermore workload scale (1.0 = paper size)");
}

Program
buildWorkload(const CliParser &cli)
{
    const std::string name = cli.get("workload");
    if (name == "livermore")
        return workloads::buildLivermoreBenchmark(cli.getDouble("scale"))
            .program;
    if (name == "branchy")
        return workloads::buildBranchyProgram({}).program;
    if (name.rfind("synth:", 0) == 0) {
        const std::uint64_t target =
            std::stoull(name.substr(std::string("synth:").size()));
        return workloads::buildSyntheticStream(target).program;
    }
    fatal("unknown --workload '", name,
          "' (expected livermore, branchy or synth:<insts>)");
}

int
runCapture(CliParser &cli)
{
    const auto &args = cli.positional();
    if (args.size() != 2)
        fatal("capture needs exactly one output path: pipesim-trace "
              "capture <out.pipetrc>");
    const Program program = buildWorkload(cli);
    replay::Trace trace = replay::captureTrace(
        SimConfig{}, program,
        "pipesim-trace capture --workload " + cli.get("workload"));
    replay::writeTrace(trace, args[1]);
    std::cout << "wrote " << args[1] << "\n"
              << replay::describeTrace(trace);
    return 0;
}

int
runInspect(CliParser &cli)
{
    const auto &args = cli.positional();
    if (args.size() != 2)
        fatal("inspect needs exactly one trace path: pipesim-trace "
              "inspect <trace.pipetrc>");
    const replay::Trace trace = replay::readTrace(args[1]);
    std::cout << replay::describeTrace(trace);
    std::uint64_t loads = 0, stores = 0, taken = 0, notTaken = 0;
    for (const auto &r : trace.records) {
        if (r.hasMemAddr)
            ++(r.memIsStore ? stores : loads);
        if (r.isPbr)
            ++(r.branchTaken ? taken : notTaken);
    }
    std::cout << "loads:             " << loads << "\n"
              << "stores:            " << stores << "\n"
              << "pbr taken:         " << taken << "\n"
              << "pbr not taken:     " << notTaken << "\n";
    return 0;
}

int
runReplay(CliParser &cli)
{
    const auto &args = cli.positional();
    if (args.size() != 2)
        fatal("replay needs exactly one trace path: pipesim-trace "
              "replay <trace.pipetrc>");
    const replay::Trace trace = replay::readTrace(args[1]);
    const Program program = buildWorkload(cli);

    SimConfig cfg;
    const std::string strategy = cli.get("strategy");
    const unsigned cache = unsigned(cli.getInt("cache"));
    if (strategy == "conv")
        cfg.fetch = conventionalConfigFor(cache, 16);
    else if (strategy == "tib")
        cfg.fetch = tibConfigFor(cache);
    else
        cfg.fetch = pipeConfigFor(strategy, cache);

    replay::ReplayOptions opt;
    opt.samplePeriod = unsigned(cli.getInt("sample-period"));
    opt.sampleWarmup = unsigned(cli.getInt("sample-warmup"));
    opt.sampleMeasure = unsigned(cli.getInt("sample-measure"));
    opt.jobs = unsigned(cli.getInt("jobs"));

    const SimResult result =
        replay::replayTrace(cfg, program, trace, opt);
    const std::string jsonPath = cli.get("stats-json");
    // With "--stats-json -" stdout must stay pure JSON (pipeable into
    // a parser), so the human summary moves to stderr.
    (jsonPath == "-" ? std::cerr : std::cout)
        << cfg.fetchName() << ": " << result.totalCycles << " cycles, "
        << result.instructions << " instructions, cpi " << result.cpi()
        << " (" << result.meta.at("engine") << ")\n";

    if (!jsonPath.empty()) {
        if (jsonPath == "-") {
            obs::writeStatsJson(std::cout, result, nullptr,
                                cfg.fetchName());
        } else {
            std::ofstream out(jsonPath);
            if (!out)
                fatal("cannot write --stats-json file ", jsonPath);
            obs::writeStatsJson(out, result, nullptr, cfg.fetchName());
            std::cout << "stats json: " << jsonPath << "\n";
        }
    }
    return 0;
}

int
run(int argc, char **argv)
{
    CliParser cli("capture, inspect and replay committed-instruction "
                  "traces (subcommands: capture | inspect | replay)");
    addWorkloadOptions(cli);
    cli.addOption("strategy", "16-16",
                  "replay fetch strategy: conv | tib | <iq>-<iqb>");
    cli.addOption("cache", "128", "replay cache bytes");
    cli.addOption("sample-period", "0",
                  "replay sampling period in instructions (0 = exact)");
    cli.addOption("sample-warmup", "300",
                  "sampled replay: warm-up instructions per window");
    cli.addOption("sample-measure", "700",
                  "sampled replay: measured instructions per window");
    cli.addOption("jobs", "1",
                  "sampled replay: worker threads for the windows "
                  "(0 = PIPESIM_JOBS env or hardware concurrency; "
                  "results are bit-identical for any value)");
    cli.addOption("stats-json", "",
                  "replay: write the result as JSON ('-' = stdout)");
    obs::ProfileOptions::addOptions(cli);
    if (!cli.parse(argc, argv))
        return 0;
    obs::activateProfiling(obs::ProfileOptions::fromCli(cli));

    const auto &args = cli.positional();
    if (args.empty())
        fatal("missing subcommand: pipesim-trace capture | inspect | "
              "replay (--help for usage)");
    if (args[0] == "capture")
        return runCapture(cli);
    if (args[0] == "inspect")
        return runInspect(cli);
    if (args[0] == "replay")
        return runReplay(cli);
    fatal("unknown subcommand '", args[0],
          "' (expected capture, inspect or replay)");
}

} // namespace

int
main(int argc, char **argv)
{
    return pipesim::runGuardedMain([&] { return run(argc, argv); });
}
