/**
 * Simulator throughput microbenchmarks (google-benchmark): host
 * cycles-per-second of the cycle model for both fetch strategies,
 * plus the cost of program generation and assembly.  These measure
 * the simulator itself, not the simulated machine.
 *
 * The probe-overhead pairs guard the observability layer's "free when
 * detached" property: BM_SimulatePipe/BM_SimulateConventional run
 * with no listener attached and the CPI-stack accounting off
 * (cpiStack false) and must stay within a few percent of the
 * pre-probe-bus simulation rate; BM_SimulatePipeCpiStack and
 * BM_SimulatePipeTraced show what the accounting and an attached
 * consumer cost.
 */

#include <benchmark/benchmark.h>

#include <sstream>
#include <vector>

#include "assembler/assembler.hh"
#include "common/log.hh"
#include "obs/bench_json.hh"
#include "obs/trace_export.hh"
#include "sim/experiment.hh"
#include "sim/guard.hh"
#include "sim/simulator.hh"
#include "sim/standard_flags.hh"
#include "workloads/benchmark_program.hh"

using namespace pipesim;

namespace
{

/** Standard flags (fault injection, profiling) applied to every BM_
 *  body; filled by main() before RunSpecifiedBenchmarks. */
StandardFlags g_flags;

const workloads::Benchmark &
smallBench()
{
    static const auto b = workloads::buildLivermoreBenchmark(0.05);
    return b;
}

void
BM_SimulatePipe(benchmark::State &state)
{
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);
    cfg.mem.accessTime = unsigned(state.range(0));
    cfg.cpiStack = false; // raw rate: no accounting, no listener
    cfg.fault = g_flags.fault;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const auto res = runSimulation(cfg, smallBench().program);
        cycles += res.totalCycles;
    }
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        double(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatePipe)->Arg(1)->Arg(6);

void
BM_SimulateConventional(benchmark::State &state)
{
    SimConfig cfg;
    cfg.fetch = conventionalConfigFor(128, 16);
    cfg.mem.accessTime = unsigned(state.range(0));
    cfg.cpiStack = false; // raw rate: no accounting, no listener
    cfg.fault = g_flags.fault;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const auto res = runSimulation(cfg, smallBench().program);
        cycles += res.totalCycles;
    }
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        double(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulateConventional)->Arg(1)->Arg(6);

void
BM_SimulatePipeCpiStack(benchmark::State &state)
{
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);
    cfg.mem.accessTime = unsigned(state.range(0));
    cfg.cpiStack = true; // the default: cycle accounting on
    cfg.fault = g_flags.fault;
    std::uint64_t cycles = 0;
    for (auto _ : state) {
        const auto res = runSimulation(cfg, smallBench().program);
        cycles += res.totalCycles;
    }
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        double(cycles), benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SimulatePipeCpiStack)->Arg(1)->Arg(6);

void
BM_SimulatePipeTraced(benchmark::State &state)
{
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);
    cfg.mem.accessTime = unsigned(state.range(0));
    std::uint64_t cycles = 0;
    std::uint64_t events = 0;
    for (auto _ : state) {
        Simulator sim(cfg, smallBench().program);
        obs::ChromeTraceWriter trace;
        trace.attach(sim.probes());
        const auto res = sim.run();
        trace.detach();
        cycles += res.totalCycles;
        events += trace.eventCount();
        benchmark::DoNotOptimize(events);
    }
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        double(cycles), benchmark::Counter::kIsRate);
    state.counters["trace_events_per_run"] =
        double(events) / double(state.iterations());
}
BENCHMARK(BM_SimulatePipeTraced)->Arg(1)->Arg(6);

const workloads::Benchmark &
paperBench()
{
    static const auto b = workloads::buildLivermoreBenchmark(1.0);
    return b;
}

/**
 * Sweep throughput: one full figure-style sweep (7 sizes x 5
 * strategies, paper-scale Livermore workload) per iteration, with the
 * worker count as the argument.  Arg(1) is the serial baseline; the
 * serial-vs-parallel ratio is the wall-clock speedup recorded in
 * results/simspeed_parallel.md.
 */
void
BM_SweepThroughput(benchmark::State &state)
{
    SweepSpec spec;
    spec.jobs = unsigned(state.range(0));
    spec.fault = g_flags.fault;
    spec.mem.accessTime = 6;
    spec.mem.busWidthBytes = 8;
    unsigned valid = 0;
    for (const auto &strategy : spec.strategies)
        for (unsigned size : spec.cacheSizes)
            valid += sweepPointValid(spec, strategy, size) ? 1 : 0;
    for (auto _ : state) {
        const SweepResult r = runCacheSweep(spec, paperBench().program);
        benchmark::DoNotOptimize(r.table.numRows());
    }
    state.counters["sweep_points_per_s"] = benchmark::Counter(
        double(valid) * double(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_SweepThroughput)
    ->Arg(1)
    ->Arg(2)
    ->Arg(4)
    ->UseRealTime()
    ->Unit(benchmark::kMillisecond);

void
BM_BuildBenchmark(benchmark::State &state)
{
    for (auto _ : state) {
        const auto b = workloads::buildLivermoreBenchmark(0.05);
        benchmark::DoNotOptimize(b.program.codeSize());
    }
}
BENCHMARK(BM_BuildBenchmark);

void
BM_Assemble(benchmark::State &state)
{
    const char *src = R"(
        li r1, 0x4000
        li r2, 100
        lbr b0, loop
    loop:
        ld [r1 + 0]
        addi r1, r1, 4
        add r3, r3, r7
        subi r2, r2, 1
        pbr b0, 2, nez, r2
        nop
        nop
        halt
    )";
    for (auto _ : state) {
        const Program p = assembler::assemble(src);
        benchmark::DoNotOptimize(p.codeSize());
    }
}
BENCHMARK(BM_Assemble);

/**
 * ConsoleReporter that additionally captures every per-iteration run
 * into a pipesim-bench report: the printed output is unchanged, but
 * --bench-json gets a machine-readable copy with raw counter values
 * and their rate forms (scripts/perf_report.py diffs these).
 */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    explicit CapturingReporter(obs::BenchReport &report)
        : _report(report)
    {
    }

    void
    ReportRuns(const std::vector<Run> &runs) override
    {
        for (const Run &run : runs) {
            if (run.run_type != Run::RT_Iteration ||
                run.error_occurred)
                continue;
            obs::BenchRecord &rec = _report.add(run.benchmark_name());
            rec.metrics["iterations"] = double(run.iterations);
            rec.metrics["real_time_s_per_iter"] =
                run.iterations
                    ? run.real_accumulated_time / double(run.iterations)
                    : 0.0;
            // Counters reach the reporter already "finished" (rate
            // counters hold the displayed per-second value).
            for (const auto &[name, counter] : run.counters)
                rec.metrics[name] = counter.value;
        }
        ConsoleReporter::ReportRuns(runs);
    }

  private:
    obs::BenchReport &_report;
};

} // namespace

// Guarded main on the standard flag surface: pipesim options (fault
// injection, host profiling, --bench-json) parse through CliParser,
// while --benchmark_* arguments pass through to google-benchmark.
int
main(int argc, char **argv)
{
    return pipesim::runGuardedMain([&]() -> int {
        // Split argv: google-benchmark flags keep their --benchmark_*
        // prefix; everything else (argv[0] included) is ours.
        std::vector<char *> gbArgs = {argv[0]};
        std::vector<const char *> ourArgs = {argv[0]};
        for (int i = 1; i < argc; ++i) {
            if (std::string(argv[i]).rfind("--benchmark", 0) == 0)
                gbArgs.push_back(argv[i]);
            else
                ourArgs.push_back(argv[i]);
        }

        CliParser cli("Simulator throughput microbenchmarks "
                      "(google-benchmark); also accepts --benchmark_* "
                      "arguments");
        registerStandardFlags(cli, {false, false});
        cli.addOption("bench-json", "",
                      "write the results as a pipesim-bench JSON "
                      "document to this file");
        if (!cli.parse(int(ourArgs.size()), ourArgs.data()))
            return 0;
        g_flags = standardFlagsFromCli(cli, {false, false});
        if (g_flags.obs.any())
            warn("--cpi-stack/--trace-json/--stats-json have no effect "
                 "here: the microbenchmarks run thousands of "
                 "simulations; use an example or figure bench for "
                 "per-run observability outputs");
        const std::string benchJson = cli.get("bench-json");

        int gbArgc = int(gbArgs.size());
        benchmark::Initialize(&gbArgc, gbArgs.data());
        if (benchmark::ReportUnrecognizedArguments(gbArgc,
                                                   gbArgs.data()))
            return 1;

        obs::BenchReport report;
        report.tool = "micro_simspeed";
        report.config["workload"] = "livermore";
        report.config["fault_kinds"] =
            g_flags.fault.enabled() ? "enabled" : "none";
        CapturingReporter reporter(report);
        benchmark::RunSpecifiedBenchmarks(&reporter);
        benchmark::Shutdown();

        if (!benchJson.empty()) {
            report.writeFile(benchJson);
            std::cerr << "wrote bench results to " << benchJson << "\n";
        }
        return 0;
    });
}
