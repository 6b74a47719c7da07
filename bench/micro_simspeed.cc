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
 * consumer cost.  BM_MemoBoundary times one loop-memo boundary's
 * keyed checkpoint and its restore.
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <sstream>
#include <vector>

#include "assembler/assembler.hh"
#include "common/log.hh"
#include "common/state_io.hh"
#include "mem/fpu.hh"
#include "obs/bench_json.hh"
#include "obs/trace_export.hh"
#include "replay/capture.hh"
#include "sim/experiment.hh"
#include "sim/guard.hh"
#include "sim/simulator.hh"
#include "sim/standard_flags.hh"
#include "workloads/benchmark_program.hh"

using namespace pipesim;

namespace
{

const workloads::Benchmark &
smallBench()
{
    static const auto b = workloads::buildLivermoreBenchmark(0.05);
    return b;
}

/**
 * Simulate @p fetch over the small benchmark once per iteration at
 * the access time in range(0), with no accounting and no listener.
 * Besides the rate it reports work counters that do not move with
 * host noise: ticks_per_sim_cycle, the share of cycles the loop
 * ticked rather than skipped as idle, and fetch_ticks_per_sim_cycle
 * and mem_ticks_per_sim_cycle, the shares on which the fetch unit's
 * and the memory system's ticks ran rather than being gated.
 */
void
simulateRaw(benchmark::State &state, const FetchConfig &fetch)
{
    SimConfig cfg;
    cfg.fetch = fetch;
    cfg.mem.accessTime = unsigned(state.range(0));
    cfg.cpiStack = false; // raw rate: no accounting, no listener
    std::uint64_t cycles = 0, ticks = 0, fetchTicks = 0, memTicks = 0;
    std::uint64_t clock = 0;
    for (auto _ : state) {
        Simulator sim(cfg, smallBench().program);
        const auto res = sim.run();
        cycles += res.totalCycles;
        ticks += sim.ticksExecuted();
        fetchTicks += sim.fetchTicksExecuted();
        memTicks += sim.memTicksExecuted();
        clock += sim.now();
    }
    state.counters["sim_cycles_per_s"] = benchmark::Counter(
        double(cycles), benchmark::Counter::kIsRate);
    state.counters["ticks_per_sim_cycle"] = double(ticks) / double(clock);
    state.counters["fetch_ticks_per_sim_cycle"] =
        double(fetchTicks) / double(clock);
    state.counters["mem_ticks_per_sim_cycle"] =
        double(memTicks) / double(clock);
}

void
BM_SimulatePipe(benchmark::State &state)
{
    simulateRaw(state, pipeConfigFor("16-16", 128));
}
BENCHMARK(BM_SimulatePipe)->Arg(1)->Arg(6);

void
BM_SimulateConventional(benchmark::State &state)
{
    simulateRaw(state, conventionalConfigFor(128, 16));
}
BENCHMARK(BM_SimulateConventional)->Arg(1)->Arg(6);

void
BM_SimulatePipeCpiStack(benchmark::State &state)
{
    SimConfig cfg;
    cfg.fetch = pipeConfigFor("16-16", 128);
    cfg.mem.accessTime = unsigned(state.range(0));
    cfg.cpiStack = true; // the default: cycle accounting on
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

/**
 * The loop memo's boundary cost: one keyed Simulator::saveState,
 * sized like the last one as Simulator::memoize sizes it, and one
 * restoreState of its payload, on a trace-driven machine stopped
 * halfway through the small benchmark.  range(0) picks the fetch
 * configuration: 0 is 16-16:128, 1 is conv:1024.  save_ns and
 * restore_ns split each iteration's time; payload_bytes, key_bytes
 * and fields size the checkpoint.
 */
void
BM_MemoBoundary(benchmark::State &state)
{
    static const replay::Trace trace = replay::captureTrace(
        SimConfig{}, smallBench().program, "micro_simspeed");
    SimConfig cfg;
    cfg.fetch = state.range(0) == 0 ? pipeConfigFor("16-16", 128)
                                    : conventionalConfigFor(1024);
    DataMemory mem;
    Simulator sim(cfg, smallBench().program, mem, &trace);
    sim.runUntil(trace.records.size() / 2);

    using Clock = std::chrono::steady_clock;
    const auto nsSince = [](Clock::time_point t0) {
        return double(std::chrono::duration_cast<std::chrono::nanoseconds>(
                          Clock::now() - t0)
                          .count());
    };
    StateWriter::Sizes hint;
    double saveNs = 0, restoreNs = 0;
    for (auto _ : state) {
        auto t0 = Clock::now();
        StateWriter w(sim.now(), &FpuDevice::contains, hint);
        sim.saveState(w);
        hint = w.sizes();
        std::vector<std::uint8_t> key = w.takeKey();
        std::vector<StateWriter::Field> fields = w.takeFields();
        const std::vector<std::uint8_t> payload = w.take();
        saveNs += nsSince(t0);
        benchmark::DoNotOptimize(key.data());
        benchmark::DoNotOptimize(fields.data());

        t0 = Clock::now();
        StateReader r(payload, "memo boundary");
        sim.restoreState(r);
        r.expectEnd();
        restoreNs += nsSince(t0);
    }
    const double n = double(state.iterations());
    state.counters["save_ns"] = saveNs / n;
    state.counters["restore_ns"] = restoreNs / n;
    state.counters["payload_bytes"] = double(hint.bytes);
    state.counters["key_bytes"] = double(hint.key);
    state.counters["fields"] = double(hint.fields);
}
BENCHMARK(BM_MemoBoundary)->Arg(0)->Arg(1);

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

// Guarded main on the standard flag surface: pipesim options (host
// profiling, --bench-json) parse through CliParser,
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
        if (standardFlagsFromCli(cli, {false, false}).obs.any())
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
