#include "sim/standard_flags.hh"

#include <fstream>
#include <optional>

#include "common/log.hh"
#include "fault/fault_cli.hh"
#include "replay/capture.hh"
#include "replay/replay_engine.hh"
#include "replay/trace_format.hh"

namespace pipesim
{

void
registerStandardFlags(CliParser &cli, const StandardFlagGroups &groups)
{
    obs::ObsOptions::addOptions(cli);
    obs::ProfileOptions::addOptions(cli);
    fault::addFaultOptions(cli);
    if (groups.sweep) {
        cli.addOption("jobs", "0",
                      "parallel sweep workers (0 = PIPESIM_JOBS env or "
                      "hardware concurrency, 1 = serial)");
        cli.addOption("obs-point", "16-16:128",
                      "sweep point (strategy:cachebytes) the "
                      "observability outputs apply to");
        cli.addOption("fi-point", "",
                      "restrict fault injection to one sweep point "
                      "(strategy:cachebytes); empty = every point");
        cli.addFlag("fail-fast",
                    "abort the sweep on the first point failure instead "
                    "of rendering ERR cells and reporting at the end");
        cli.addFlag("progress",
                    "emit a throttled sweep heartbeat with ETA on "
                    "stderr (stdout tables are unaffected)");
        cli.addOption("store-dir", "",
                      "journal each completed point into this result "
                      "store and serve already-completed points from "
                      "it, so an interrupted sweep resumes losslessly "
                      "(empty = no store)");
        cli.addOption("point-deadline-ms", "0",
                      "wall-clock budget per sweep point attempt; an "
                      "overrunning point is cancelled and dispositioned "
                      "as ERR(timeout) (0 = no deadline)");
        cli.addOption("progress-window", "0",
                      "override the engine's no-forward-progress "
                      "watchdog window, in cycles (0 = engine default)");
    }
    if (groups.engine) {
        cli.addOption("engine", "cycle",
                      "simulation engine: cycle (full detail) or trace "
                      "(replay a captured instruction stream)");
        cli.addOption("trace-file", "",
                      "trace engine: load the capture from this file "
                      "(or save a fresh capture to it)");
        cli.addOption("sample-period", "0",
                      "trace engine: sampling period in instructions "
                      "(0 = exact replay)");
        cli.addOption("sample-warmup", "300",
                      "trace engine: detailed warm-up instructions per "
                      "sampling window");
        cli.addOption("sample-measure", "700",
                      "trace engine: measured instructions per sampling "
                      "window");
        cli.addOption("ckpt-dir", "",
                      "sampled replay: live-points checkpoint directory "
                      "(restore windows from warm snapshots; empty = "
                      "no checkpoints)");
        cli.addFlag("ckpt-create",
                    "sampled replay: create/refresh the checkpoint "
                    "files under --ckpt-dir instead of requiring them");
    }
}

namespace
{

unsigned
nonNegative(const CliParser &cli, const std::string &name)
{
    const std::int64_t v = cli.getInt(name);
    if (v < 0)
        fatal("--", name, " must be >= 0, got ", v);
    return unsigned(v);
}

} // namespace

StandardFlags
standardFlagsFromCli(const CliParser &cli, const StandardFlagGroups &groups)
{
    StandardFlags f;
    f.obs = obs::ObsOptions::fromCli(cli);
    f.profile = obs::ProfileOptions::fromCli(cli);
    // Activate now so workload construction and capture are covered
    // too; runGuardedMain() flushes the report on every exit path.
    obs::activateProfiling(f.profile);
    f.fault = fault::faultConfigFromCli(cli);
    if (groups.sweep) {
        f.jobs = nonNegative(cli, "jobs");
        f.obsPoint = cli.get("obs-point");
        f.faultPoint = cli.get("fi-point");
        f.failFast = cli.getFlag("fail-fast");
        f.progress = cli.getFlag("progress");
        f.storeDir = cli.get("store-dir");
        f.pointDeadlineMs = nonNegative(cli, "point-deadline-ms");
        f.progressWindow = nonNegative(cli, "progress-window");
    }
    if (groups.engine) {
        const std::string engine = cli.get("engine");
        if (engine == "cycle") {
            f.engine = SweepEngine::Cycle;
        } else if (engine == "trace") {
            f.engine = SweepEngine::Trace;
        } else {
            fatal("--engine must be 'cycle' or 'trace', got '", engine,
                  "'");
        }
        f.traceFile = cli.get("trace-file");
        f.samplePeriod = nonNegative(cli, "sample-period");
        f.sampleWarmup = nonNegative(cli, "sample-warmup");
        f.sampleMeasure = nonNegative(cli, "sample-measure");
        f.ckptDir = cli.get("ckpt-dir");
        f.ckptCreate = cli.getFlag("ckpt-create");
    }
    return f;
}

void
installObs(SweepSpec &spec, const StandardFlags &flags)
{
    if (!flags.obs.any())
        return;
    const obs::ObsOptions opts = flags.obs;
    const std::string point = flags.obsPoint;
    auto session = std::make_shared<std::optional<obs::ObsSession>>();
    auto produced = std::make_shared<bool>(false);
    auto matches = [point](const std::string &strategy, unsigned cache) {
        return strategy + ":" + std::to_string(cache) == point;
    };
    spec.preRun = [session, opts, matches](Simulator &sim,
                                           const std::string &strategy,
                                           unsigned cache) {
        if (matches(strategy, cache))
            session->emplace(opts, sim);
    };
    spec.postRun = [session, matches, produced](
                       Simulator &sim [[maybe_unused]],
                       const std::string &strategy, unsigned cache,
                       const SimResult &result) {
        if (!matches(strategy, cache) || !session->has_value())
            return;
        (*session)->finish(result,
                           strategy + ":" + std::to_string(cache));
        session->reset();
        *produced = true;
    };
    spec.onSweepEnd = [produced, point, prev = spec.onSweepEnd]() {
        if (prev)
            prev();
        if (!*produced)
            warn("--obs-point " + point +
                 " matched no sweep point that ran; the requested "
                 "observability outputs were not produced (check the "
                 "strategy name and cache size against the sweep)");
    };
}

void
applyStandardFlags(SweepSpec &spec, const StandardFlags &flags)
{
    spec.jobs = flags.jobs;
    spec.progress = flags.progress;
    spec.fault = flags.fault;
    spec.faultPoint = flags.faultPoint;
    spec.storeDir = flags.storeDir;
    spec.pointDeadlineMs = flags.pointDeadlineMs;
    if (flags.progressWindow)
        spec.progressWindow = flags.progressWindow;
    spec.failurePolicy = flags.failFast
                             ? SweepFailurePolicy::FailFast
                             : SweepFailurePolicy::CollectAndContinue;
    spec.engine = flags.engine;
    spec.samplePeriod = flags.samplePeriod;
    spec.sampleWarmup = flags.sampleWarmup;
    spec.sampleMeasure = flags.sampleMeasure;
    spec.ckptDir = flags.ckptDir;
    spec.ckptCreate = flags.ckptCreate;
    if (!flags.ckptDir.empty()) {
        if (flags.engine != SweepEngine::Trace ||
            flags.samplePeriod == 0)
            fatal("--ckpt-dir requires sampled trace replay "
                  "(--engine trace with --sample-period > 0): "
                  "checkpoints snapshot sampling windows");
    } else if (flags.ckptCreate) {
        fatal("--ckpt-create requires --ckpt-dir to name the "
              "checkpoint directory");
    }
    if (flags.engine == SweepEngine::Trace) {
        if (flags.fault.enabled())
            fatal("--engine trace cannot be combined with fault "
                  "injection (--fi-kind): replay has no fault "
                  "injector; use --engine cycle");
        if (flags.obs.any())
            fatal("--engine trace cannot produce the per-point "
                  "observability outputs (--cpi-stack/--trace-json/"
                  "--stats-json): replay has no probe bus to attach "
                  "to; use --engine cycle");
    }
    installObs(spec, flags);
}

std::shared_ptr<const replay::Trace>
prepareSweepTrace(SweepSpec &spec, const StandardFlags &flags,
                  const Program &program)
{
    if (flags.engine != SweepEngine::Trace)
        return nullptr;

    std::shared_ptr<const replay::Trace> trace;
    const bool haveFile =
        !flags.traceFile.empty() &&
        std::ifstream(flags.traceFile, std::ios::binary).good();
    if (haveFile) {
        auto loaded = std::make_shared<replay::Trace>(
            replay::readTrace(flags.traceFile));
        const std::string hash = replay::programSha256(program);
        if (loaded->meta.programSha256 != hash)
            fatal("--trace-file ", flags.traceFile,
                  " was captured from a different program (trace "
                  "program sha256 ", loaded->meta.programSha256,
                  ", this program ", hash, ")");
        trace = loaded;
    } else {
        SimConfig captureCfg;
        auto captured = std::make_shared<replay::Trace>(
            replay::captureTrace(captureCfg, program,
                                 "auto-capture (" +
                                     captureCfg.fetchName() + ")"));
        if (!flags.traceFile.empty())
            replay::writeTrace(*captured, flags.traceFile);
        trace = captured;
    }
    spec.trace = trace.get();
    return trace;
}

} // namespace pipesim
